(* The traced pass's record: spans the benchmark times around its calls
   into the library, plus the library's own Obs events, grouped by job.
   Everything is kept in memory during the run, written out once at the
   end, and read back for analysis, so the numbers come from the dump.

   Dump format, one record per line, tab-separated:
     S <job> <id> <parent> <name> <start> <stop>
     E <job> <Obs.Jsonl line>
   Job -1 holds the set-up spans; parent -1 marks a root. Times are
   Unix.gettimeofday seconds, the clock Obs stamps its events with. *)

type span = { job : int; id : int; parent : int; name : string; start : float; stop : float }

type t = {
  mutable spans : span list;
  mutable events : (int * Obs.stamped) list;
  mutable next : int;
}

let create () = { spans = []; events = []; next = 0 }
let now = Unix.gettimeofday

let add t ~job ~parent ~name ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { job; id; parent; name; start; stop } :: t.spans;
  id

(* Time [f] as a root span of [job]. *)
let time t ~job name f =
  let start = now () in
  let r = f () in
  ignore (add t ~job ~parent:(-1) ~name ~start ~stop:(now ()));
  r

(* [evs] oldest first; kept newest first like [spans]. *)
let add_events t ~job evs = t.events <- List.rev_append (List.map (fun e -> (job, e)) evs) t.events

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "S\t%d\t%d\t%d\t%s\t%.6f\t%.6f\n" s.job s.id s.parent s.name s.start
        s.stop)
    (List.rev t.spans);
  List.iter
    (fun (job, e) -> Printf.fprintf oc "E\t%d\t%s\n" job (Obs.Jsonl.to_line e))
    (List.rev t.events);
  close_out oc

type dump = { d_spans : span list; d_events : (int * Obs.stamped) list }

let read path =
  let ic = open_in path in
  let spans = ref [] and events = ref [] and err = ref None and lineno = ref 0 in
  (try
     while Option.is_none !err do
       let line = input_line ic in
       incr lineno;
       let fail msg = err := Some (Printf.sprintf "%s:%d: %s" path !lineno msg) in
       match String.split_on_char '\t' line with
       | [ "S"; job; id; parent; name; start; stop ] -> (
           match
             ( int_of_string_opt job, int_of_string_opt id, int_of_string_opt parent,
               float_of_string_opt start, float_of_string_opt stop )
           with
           | Some job, Some id, Some parent, Some start, Some stop ->
               spans := { job; id; parent; name; start; stop } :: !spans
           | _ -> fail "malformed span")
       | [ "E"; job; json ] -> (
           match (int_of_string_opt job, Obs.Jsonl.of_line json) with
           | Some job, Ok e -> events := (job, e) :: !events
           | _, Error msg -> fail msg
           | None, _ -> fail "malformed event job")
       | _ -> fail "unknown record"
     done
   with End_of_file -> ());
  close_in ic;
  match !err with
  | Some msg -> Error msg
  | None -> Ok { d_spans = List.rev !spans; d_events = List.rev !events }

(* Spans derived from one job's Obs events: the scheduler run
   (Run_begin .. Run_end) and its timed phases (a Phase_time event is
   stamped as its phase ends). A run's parent is the innermost of the
   job's spans containing its start, the benchmark's call into the
   library; equal intervals resolve to the later-recorded (child) span. *)
let derive ~next_id job_spans events =
  let next_id = ref next_id in
  let fresh parent name start stop =
    let id = !next_id in
    incr next_id;
    { job = parent.job; id; parent = parent.id; name; start; stop }
  in
  let enclosing at =
    let inner a b =
      let da = a.stop -. a.start and db = b.stop -. b.start in
      if da < db || (da = db && a.id > b.id) then a else b
    in
    match List.filter (fun s -> s.start <= at && at <= s.stop) job_spans with
    | s :: rest -> Some (List.fold_left inner s rest)
    | [] ->
        (* Clock skew past every span: the latest one started. *)
        List.fold_left
          (fun best s ->
            match best with
            | Some b when b.start > s.start || s.start > at -> best
            | _ -> if s.start <= at then Some s else best)
          None job_spans
  in
  let derived = ref [] and run = ref None in
  List.iter
    (fun (e : Obs.stamped) ->
      match e.event with
      | Obs.Run_begin _ -> run := Some e.at_s
      | Obs.Run_end _ -> (
          match (!run, enclosing (Option.value !run ~default:e.at_s)) with
          | Some b, Some parent ->
              let r = fresh parent "sched.run" b (Float.max b e.at_s) in
              let phases =
                List.filter_map
                  (fun (p : Obs.stamped) ->
                    match p.event with
                    | Obs.Phase_time { phase; dt_s; _ } when p.at_s >= b && p.at_s <= e.at_s ->
                        Some
                          (fresh r ("sched." ^ Obs.phase_name phase) (p.at_s -. dt_s) p.at_s)
                    | _ -> None)
                  events
              in
              derived := List.rev_append phases (r :: !derived);
              run := None
          | _ -> run := None)
      | _ -> ())
    events;
  List.rev !derived

(* Self time of every span: its duration minus the union of its
   children's intervals inside it. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop)) spans;
  List.map
    (fun s -> (s, Metrics.self_time ~start:s.start ~stop:s.stop (Hashtbl.find_all children s.id)))
    spans

(* "sched.inspect" belongs to layer "sched"; a job's root span is named
   "job" and its self time is the unattributed remainder. *)
let layer name = match String.index_opt name '.' with None -> name | Some i -> String.sub name 0 i
