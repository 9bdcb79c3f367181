(* Metric math of the benchmark: order statistics, the tail rule, ratios
   that carry their base, open-loop latency from due times, queue wait
   from drain order, and the result line. Pure functions over samples,
   so the test suite can feed them synthetic data. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* The mean of the two middle samples for an even count. Raises on an
   empty sample: a metric with no samples is a benchmark bug. *)
let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Metrics.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let sum a = Array.fold_left ( +. ) 0.0 a
let max_of a = Array.fold_left Float.max Float.neg_infinity a

type tail = {
  value : float;
  percentile : float;  (** rank / samples, as a percentage *)
  samples : int;
  beyond : int;  (** samples strictly above the reported rank *)
}

let min_beyond = 10

(* The highest percentile that still has [min_beyond] samples beyond it:
   with n samples sorted ascending, the sample of rank n - 10 (1-based).
   [None] below 11 samples, where no such rank exists. *)
let tail a =
  let n = Array.length a in
  if n <= min_beyond then None
  else
    let rank = n - min_beyond in
    let s = sorted a in
    Some
      {
        value = s.(rank - 1);
        percentile = 100.0 *. float_of_int rank /. float_of_int n;
        samples = n;
        beyond = min_beyond;
      }

(* A ratio keeps its numerator and base, so every printed ratio can show
   what it was taken over. A zero base gives 0, never NaN. *)
type ratio = { num : float; den : float }

let ratio num den = { num; den }
let ratio_i num den = { num = float_of_int num; den = float_of_int den }
let value r = if r.den = 0.0 then 0.0 else r.num /. r.den

let pp_ratio ppf r =
  Format.fprintf ppf "%.6g (%.6g / %.6g)" (value r) r.num r.den

(* Median over jobs run both ways of after_i / before_i: pairing by job
   cancels the input's own cost, the median one noisy pair. *)
let paired_median before after =
  let n = min (Array.length before) (Array.length after) in
  median (Array.init n (fun i -> after.(i) /. before.(i)))

(* Open loop: a request is late from the moment it was due, so its
   latency is the generator's submit delay plus the server's own
   submit-to-completion time. *)
let due_latency ~due ~submitted ~server_latency = submitted -. due +. server_latency

type drained = { start : float; exec : float; queue_wait : float }

(* A drain runs its jobs one after another in job-id order, so job k
   starts when job k-1 completed and the first starts with the drain.
   [jobs] lists (due time, completion time) in drain order. *)
let drain_order ~drain_start jobs =
  let prev = ref drain_start in
  List.map
    (fun (due, completed) ->
      let start = !prev in
      prev := completed;
      { start; exec = completed -. start; queue_wait = start -. due })
    jobs

(* Self time of an interval: its length minus the part its children
   cover. Children may overlap each other and stick out of the parent;
   only their union inside the parent counts. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, Float.max cb b))
            else (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  let covered = match last with None -> covered | Some (a, b) -> covered +. (b -. a) in
  Float.max 0.0 (stop -. start -. covered)

(* The last line of a run: one JSON object. Values are printed with all
   their digits; a non-finite value is a benchmark bug. *)
let result_line ~correct ~attempted ~failed metrics =
  let metric (name, v, unit) =
    if not (Float.is_finite v) then
      invalid_arg (Printf.sprintf "Metrics.result_line: %s is not finite" name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
