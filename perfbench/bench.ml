(* The repository benchmark: one process, one pool of nproc domains, one
   named workload per run.

     bench --workload traverse|serve|morph --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off. --trace 1
   is the separate traced pass: it records spans around the benchmark's
   calls into the library, captures the library's Obs events through the
   public sink arguments, writes both to perfbench/out/, reads the dump
   back and derives the per-layer metrics from it. Both passes check
   every job's output. The last line of standard output is one JSON
   object; README.md explains the workloads and metrics. *)

module M = Perfbench.Metrics
module Spans = Perfbench.Spans
module Csr = Graphlib.Csr

(* Jobs run at det:nproc on a pool of nproc domains, each domain pinned
   to its own CPU. Unpinned, the kernel may stack the two domains of a
   2-CPU host on one CPU for a whole run: every round's fork-join then
   goes through the scheduler, and the same serve seed gives 42 or 100
   queries/s from one process to the next. *)
let threads = Domain.recommended_domain_count ()

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external pin_cpu : int -> bool = "perfbench_pin_cpu"

(* Read before any pinning: threads inherit their creator's mask. *)
let cpus = allowed_cpus ()

let create_pool () =
  let pool = Galois.Pool.create ~domains:threads () in
  Parallel.Domain_pool.run (Galois.Pool.domain_pool pool) (fun w ->
      if not (pin_cpu cpus.(w mod Array.length cpus)) then
        prerr_endline "bench: cannot pin a pool domain; running unpinned");
  pool

let clock = Galois.Clock.now_s
let elapsed = Galois.Clock.elapsed_s

(* Set-up is repeated and its median reported, so one slow domain spawn
   or page-fault burst does not move setup_s. *)
let setup_reps = 5

(* Closed loops run at least this many jobs, so the tail rule (ten
   samples beyond the reported rank) always has a rank to report. *)
let min_jobs = 24

(* ------------------------------------------------------------------ *)
(* Bookkeeping shared by the workloads                                 *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let checked what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "bench: wrong output: %s\n%!" what
  end

(* A replay of an already counted job: a mismatch turns that job into a
   failure without counting a new attempt. *)
let replayed what ok =
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "bench: det:1 replay disagrees: %s\n%!" what
  end

(* Metrics printed by name: (name, value, unit, base or context). *)
let metrics : (string * float * string * string) list ref = ref []
let emit ?(note = "") name value unit = metrics := (name, value, unit, note) :: !metrics
let emit_ratio name r unit = emit name (M.value r) unit ~note:(Format.asprintf "%a" M.pp_ratio r)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> failwith "bench: no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Build the workload's inputs [setup_reps] times and keep the last;
   [dispose] releases an earlier build (its pool) outside the timing. *)
let repeated_setup ~reps build dispose =
  let times = Array.make reps 0.0 and last = ref None in
  for i = 0 to reps - 1 do
    Option.iter dispose !last;
    let t0 = clock () in
    let v = build () in
    times.(i) <- elapsed t0;
    last := Some v
  done;
  (Option.get !last, M.median times)

let pick ~seed i bound =
  Parallel.Splitmix.int (Parallel.Splitmix.create ((seed * 1_000_003) + (i * 7919) + 17)) bound

(* An Obs sink keeping every event, oldest first on [contents]. *)
let list_sink () =
  let buf = ref [] in
  ({ Obs.emit = (fun e -> buf := e :: !buf); close = ignore }, fun () -> List.rev !buf)

type gc_delta = { minor : float; promoted : float; majors : int }

(* The allocation pass of bench_apps: one domain, GC counters around the
   runs only. *)
let gc_measured f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      minor = g1.minor_words -. g0.minor_words;
      promoted = g1.promoted_words -. g0.promoted_words;
      majors = g1.major_collections - g0.major_collections;
    } )

let emit_gc d ~commits ~jobs =
  emit_ratio "gc.minor_words_per_commit" (M.ratio d.minor (float_of_int commits)) "words";
  emit_ratio "gc.promoted_words_per_commit" (M.ratio d.promoted (float_of_int commits)) "words";
  emit_ratio "gc.major_collections_per_job" (M.ratio_i d.majors jobs) "count"

let emit_latency ~jobs_per_s latencies =
  emit "jobs_per_s" (M.value jobs_per_s) "1/s"
    ~note:(Format.asprintf "%a jobs per busy second" M.pp_ratio jobs_per_s);
  emit "job_p50_s" (M.median latencies) "s"
    ~note:(Printf.sprintf "of %d jobs" (Array.length latencies));
  match M.tail latencies with
  | Some t ->
      emit "job_tail_s" t.value "s"
        ~note:(Printf.sprintf "p%.1f of %d jobs, %d beyond" t.percentile t.samples t.beyond)
  | None -> failwith "bench: too few jobs for the tail rule"

(* ------------------------------------------------------------------ *)
(* Closed-loop jobs (traverse, morph)                                  *)
(* ------------------------------------------------------------------ *)

(* One job: [prepare] builds its mutable input outside the timing and
   returns the timed call, which returns the report and a check of the
   output against the serial reference. [serial_s] times that reference
   on the same input. *)
type instance = {
  app : string;
  options : Galois.Policy.det_options;
  prepare : unit -> Galois.Policy.t -> Obs.sink -> Galois.Runtime.report * (unit -> bool);
  serial_s : unit -> float;
}

let policy inst t = Galois.Policy.det ~options:inst.options t
let unordered = Galois.Policy.Det_options.default

let timed f =
  let t0 = clock () in
  f ();
  elapsed t0

type job = { idx : int; app : string; wall_s : float; stats : Galois.Stats.t }

(* One client: the next job starts when the previous one returned. The
   loop stops at a whole number of alternations once [seconds] of job
   time have passed. With [spans], each job gets a root span, a span
   around the library call and its own event sink. *)
let closed_loop ?spans ~cycle ~seconds make =
  let rec go i busy acc =
    if i >= min_jobs && i mod cycle = 0 && busy >= seconds then List.rev acc
    else begin
      let inst = make i in
      let call = inst.prepare () in
      (* Each job starts on a collected heap, so the benchmark's own
         allocation (inputs, checks) is not paid inside a timed job. *)
      Gc.full_major ();
      let sink, events = match spans with None -> (Obs.null, None) | Some _ ->
        let s, c = list_sink () in (s, Some c) in
      let w0 = Spans.now () in
      let t0 = clock () in
      let report, check = call (policy inst threads) sink in
      let dt = elapsed t0 in
      let w1 = Spans.now () in
      (match (spans, events) with
      | Some sp, Some events ->
          let root = Spans.add sp ~job:i ~parent:(-1) ~name:"job" ~start:w0 ~stop:(Spans.now ()) in
          ignore (Spans.add sp ~job:i ~parent:root ~name:("apps." ^ inst.app) ~start:w0 ~stop:w1);
          Spans.add_events sp ~job:i (events ())
      | _ -> ());
      checked (Printf.sprintf "%s job %d" inst.app i) (check ());
      go (i + 1) (busy +. dt) ({ idx = i; app = inst.app; wall_s = dt; stats = report.stats } :: acc)
    end
  in
  go 0 0.0 []

(* Re-run the first job of each app at det:[threads] under the GC
   counters: the schedule digest must match the measured run's, and the
   output the serial reference. *)
let replay ~threads make (jobs : job list) =
  let firsts =
    List.filter (fun j -> List.find (fun k -> k.app = j.app) jobs == j) jobs
  in
  let prepared = List.map (fun j -> let inst = make j.idx in (j, inst, inst.prepare ())) firsts in
  let runs, gc =
    gc_measured (fun () ->
        List.map (fun (j, inst, call) -> (j, call (policy inst threads) Obs.null)) prepared)
  in
  List.iter
    (fun (j, ((report : Galois.Runtime.report), check)) ->
      replayed
        (Printf.sprintf "%s job %d" j.app j.idx)
        (check () && Galois.Trace_digest.equal report.stats.digest j.stats.digest))
    runs;
  let commits = List.fold_left (fun acc j -> acc + j.stats.commits) 0 firsts in
  (gc, commits, List.length firsts)

let warm_up ~cycle make =
  (* One untimed, unchecked cycle on inputs the measured jobs do not
     use; the base index is a multiple of every cycle length. *)
  for i = 1_000_002 to 1_000_002 + cycle - 1 do
    let inst = make i in
    ignore (fst ((inst.prepare ()) (policy inst threads) Obs.null))
  done

let job_latencies jobs = Array.of_list (List.map (fun j -> j.wall_s) jobs)
let busy jobs = M.sum (job_latencies jobs)

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)
(* ------------------------------------------------------------------ *)

(* traverse: one k-out graph, wide BFS/SSSP rounds. *)
let traverse_nodes = 20_000

type traverse = { tg : Csr.t; tw : int array; tpool : Galois.Pool.t }

let build_traverse ~seed sp () =
  let time name f = Spans.time sp ~job:(-1) name f in
  let tg = time "graphlib.kout" (fun () -> Graphlib.Generators.kout ~seed ~n:traverse_nodes ~k:5 ()) in
  let tw = time "graphlib.weights" (fun () -> Graphlib.Graph_io.random_weights ~seed:(seed + 1) tg) in
  let tpool = time "pool.create" create_pool in
  { tg; tw; tpool }

let traverse_job t ~seed i =
  let source = pick ~seed i (Csr.nodes t.tg) in
  if i mod 3 < 2 then
    {
      app = "bfs";
      options = unordered;
      prepare =
        (fun () policy sink ->
          let dist, report = Apps.Bfs.galois ~sink ~policy ~pool:t.tpool t.tg ~source in
          (report, fun () -> dist = Apps.Bfs.serial t.tg ~source));
      serial_s = (fun () -> timed (fun () -> ignore (Apps.Bfs.serial t.tg ~source)));
    }
  else
    {
      app = "sssp";
      options = Galois.Policy.Det_options.make ~priority:Galois.Policy.Prio_auto ();
      prepare =
        (fun () policy sink ->
          let dist, report = Apps.Sssp.galois ~sink ~policy ~pool:t.tpool t.tg t.tw ~source in
          (report, fun () -> dist = Apps.Sssp.serial t.tg t.tw ~source));
      serial_s = (fun () -> timed (fun () -> ignore (Apps.Sssp.serial t.tg t.tw ~source)));
    }

(* morph: conflict-heavy jobs that mutate their input. *)
let morph_nodes = 175
let morph_graphs = 32
let morph_points = 10_000

type morph = { graphs : (Csr.t * int array) array; mpool : Galois.Pool.t }

let build_morph ~seed sp () =
  let time name f = Spans.time sp ~job:(-1) name f in
  let graphs =
    Array.init morph_graphs (fun k ->
        time "graphlib.kout" (fun () ->
            let g =
              Csr.symmetrize (Graphlib.Generators.kout ~seed:(seed + (101 * k)) ~n:morph_nodes ~k:4 ())
            in
            (g, Graphlib.Graph_io.undirected_random_weights ~seed:(seed + (101 * k) + 1) g)))
  in
  let mpool = time "pool.create" create_pool in
  { graphs; mpool }

let morph_job m ~seed i =
  if i land 1 = 0 then
    let g, w = m.graphs.(i / 2 mod morph_graphs) in
    {
      app = "boruvka";
      options = unordered;
      prepare =
        (fun () policy sink ->
          let forest, report = Apps.Boruvka.galois ~sink ~policy ~pool:m.mpool g w in
          ( report,
            fun () ->
              forest.total_weight = (Apps.Boruvka.serial g w).total_weight
              && Apps.Boruvka.validate g forest ));
      serial_s = (fun () -> timed (fun () -> ignore (Apps.Boruvka.serial g w)));
    }
  else
    let points () =
      Geometry.Point.random_unit_square ~seed:((seed * 65_537) + i) morph_points
    in
    {
      app = "dmr";
      options = unordered;
      prepare =
        (fun () ->
          let mesh = Apps.Dt.serial (points ()) in
          fun policy sink ->
            let report = Apps.Dmr.galois ~sink ~policy ~pool:m.mpool mesh in
            (report, fun () -> Apps.Dmr.refined Apps.Dmr.default_config mesh));
      serial_s =
        (fun () ->
          let mesh = Apps.Dt.serial (points ()) in
          timed (fun () -> ignore (Apps.Dmr.serial mesh)));
    }

(* serve: the synthetic catalog behind a deterministic job server. The
   catalog is the server's data and the same at every seed; the seed
   draws the traffic. cc answers on the one "sym" graph whatever its
   query, so with a per-seed catalog the median (a cc query at the 1:1:1
   mix) moved with the seed's graph rather than with the server. *)
let serve_nodes = 2_000
let catalog_seed = 2014
let serve_rate = 15.0

type serve = { catalog : Service.Catalog.t; spool : Galois.Pool.t }

let build_serve sp () =
  let time name f = Spans.time sp ~job:(-1) name f in
  let catalog =
    time "service.catalog" (fun () -> Service.Catalog.synthetic ~seed:catalog_seed ~nodes:serve_nodes ())
  in
  let spool = time "pool.create" create_pool in
  { catalog; spool }

(* ------------------------------------------------------------------ *)
(* The open loop (serve)                                               *)
(* ------------------------------------------------------------------ *)

type served = {
  s_job : int;
  query : Service.Query.t;
  due : float;
  submitted : float;
  submit_s : float;
  drained : M.drained;
  latency : float;
  response : Service.Server.response;
}

type open_run = {
  served : served array;
  drains : (float * float) list;  (* start, stop *)
  server : Service.Server.t;
  wall_offset : float;  (* gettimeofday - clock *)
}

(* Queries are due at a fixed rate from the loop's start. The generator
   runs on this domain: it submits every due query, drains whenever work
   is pending, and sleeps until the next due time otherwise. A query
   submitted late was delayed by the drain in front of it; its latency
   counts from the due time. *)
let open_loop ?job_sink s queries =
  let queries = Array.of_list queries in
  let count = Array.length queries in
  let server = Service.Server.create ~threads ~catalog:s.catalog s.spool in
  let wall_offset = Unix.gettimeofday () -. clock () in
  let base = clock () in
  let due i = base +. (float_of_int i /. serve_rate) in
  let submitted = Array.make count 0.0 and submit_s = Array.make count 0.0 in
  let drains = ref [] and done_ = ref [] in
  let next = ref 0 in
  while !next < count || Service.Server.pending server > 0 do
    let now = clock () in
    if !next < count && due !next <= now then begin
      let i = !next in
      submitted.(i) <- now;
      let sink = match job_sink with None -> Obs.null | Some f -> f i in
      (match Service.Server.submit ~sink server queries.(i) with
      | `Accepted id -> assert (id = i)
      | `Rejected id -> checked (Printf.sprintf "serve job %d rejected" id) false);
      submit_s.(i) <- elapsed now;
      incr next
    end
    else if Service.Server.pending server > 0 then begin
      let d0 = clock () in
      let responses = Service.Server.drain server in
      let d1 = clock () in
      let order =
        M.drain_order ~drain_start:d0
          (List.map
             (fun (r : Service.Server.response) ->
               (due r.job, submitted.(r.job) +. r.latency_s))
             responses)
      in
      drains := (d0, d1) :: !drains;
      done_ := List.rev_append (List.combine responses order) !done_
    end
    else Unix.sleepf (due !next -. now)
  done;
  let served =
    List.map
      (fun ((r : Service.Server.response), drained) ->
        {
          s_job = r.job;
          query = r.query;
          due = due r.job;
          submitted = submitted.(r.job);
          submit_s = submit_s.(r.job);
          drained;
          latency =
            M.due_latency ~due:(due r.job) ~submitted:submitted.(r.job)
              ~server_latency:r.latency_s;
          response = r;
        })
      !done_
    |> List.sort (fun a b -> compare a.s_job b.s_job)
    |> Array.of_list
  in
  { served; drains = List.rev !drains; server; wall_offset }

let check_responses run =
  Array.iter
    (fun x ->
      checked
        (Printf.sprintf "serve job %d (%s)" x.s_job (Service.Server.render x.response))
        (match x.response.outcome with Service.Server.Done _ -> true | _ -> false))
    run.served

(* A det:[threads] replay of the same submissions, in one arrival batch
   and under the GC counters, must render every response the same and
   fold the same service digest. *)
let replay_served ~threads s queries run =
  let replay =
    Service.Server.create ~threads ~max_pending:(max 1 (List.length queries)) ~catalog:s.catalog
      s.spool
  in
  let (), gc =
    gc_measured (fun () ->
        List.iter (fun q -> ignore (Service.Server.submit replay q)) queries;
        ignore (Service.Server.drain replay))
  in
  let measured = Service.Server.responses run.server and again = Service.Server.responses replay in
  if List.length measured <> List.length again then replayed "serve: response count" false
  else
    List.iter2
      (fun a b ->
        let a = Service.Server.render a and b = Service.Server.render b in
        replayed (Printf.sprintf "%s vs %s" a b) (String.equal a b))
      measured again;
  if not (Galois.Trace_digest.equal (Service.Server.digest run.server) (Service.Server.digest replay))
  then replayed "serve: service digest" false;
  let commits =
    List.fold_left
      (fun acc (r : Service.Server.response) ->
        match r.outcome with Service.Server.Done { commits; _ } -> acc + commits | _ -> acc)
      0 again
  in
  (gc, commits)

(* The schedule keeps the order and sources of
   [Detcheck.Service_case.queries] but admits a query only while its
   kind is not ahead of the others, so every prefix holds bfs, sssp and
   cc in equal shares. The stream's own 2:1:1 mix puts the median on
   the edge between the bfs mode and the rest, where it jumps with the
   drawn mix; at 1:1:1 it sits inside the middle (cc) mode. *)
let serve_queries ~seed ~seconds =
  let count = max min_jobs (int_of_float (Float.ceil (serve_rate *. seconds))) in
  let kind : Service.Query.t -> int = function Bfs _ -> 0 | Sssp _ -> 1 | Cc _ -> 2 in
  let taken = Array.make 3 0 in
  let rec take acc n = function
    | [] -> failwith "bench: query stream too short"
    | _ when n = count -> List.rev acc
    | q :: rest ->
        let k = kind q in
        if taken.(k) > Array.fold_left min max_int taken then take acc n rest
        else begin
          taken.(k) <- taken.(k) + 1;
          take (q :: acc) (n + 1) rest
        end
  in
  take [] 0 (Detcheck.Service_case.queries ~seed ~nodes:serve_nodes ~count:(4 * count))

let serve_busy run = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0.0 run.drains

let serve_warm_up s ~seed =
  let server = Service.Server.create ~threads ~catalog:s.catalog s.spool in
  List.iter
    (fun q -> ignore (Service.Server.submit server q))
    (Detcheck.Service_case.queries ~seed:(seed + 1) ~nodes:serve_nodes ~count:8);
  ignore (Service.Server.drain server)

(* ------------------------------------------------------------------ *)
(* The traced pass's analysis                                          *)
(* ------------------------------------------------------------------ *)

(* Per-layer numbers from a read-back dump: scheduler counters from the
   Obs events, self times from the spans (benchmark spans plus the run
   and phase spans derived from each job's events). *)
let analyse (d : Spans.dump) =
  let jobs = Hashtbl.create 256 in
  List.iter
    (fun (job, e) -> if job >= 0 then Hashtbl.replace jobs job (e :: Option.value (Hashtbl.find_opt jobs job) ~default:[]))
    d.d_events;
  let job_spans = Hashtbl.create 256 in
  List.iter
    (fun (s : Spans.span) ->
      if s.job >= 0 then
        Hashtbl.replace job_spans s.job (s :: Option.value (Hashtbl.find_opt job_spans s.job) ~default:[]))
    d.d_spans;
  let next_id = 1 + List.fold_left (fun acc (s : Spans.span) -> max acc s.id) 0 d.d_spans in
  let next_id = ref next_id in
  let derived =
    Hashtbl.fold
      (fun job evs acc ->
        let sp = Option.value (Hashtbl.find_opt job_spans job) ~default:[] in
        let ds = Spans.derive ~next_id:!next_id sp (List.rev evs) in
        next_id := !next_id + List.length ds;
        List.rev_append ds acc)
      jobs []
  in
  let all = d.d_spans @ derived in
  let selfs = Spans.self_times all in
  let n_jobs = Hashtbl.length job_spans in
  let per_job x = M.ratio x (float_of_int n_jobs) in
  let self_of layer =
    List.fold_left
      (fun acc ((s : Spans.span), self) ->
        if s.job >= 0 && Spans.layer s.name = layer then acc +. self else acc)
      0.0 selfs
  in
  let span_total name =
    List.fold_left
      (fun acc (s : Spans.span) -> if s.job >= 0 && s.name = name then acc +. (s.stop -. s.start) else acc)
      0.0 all
  in
  (* Self time by span name, for the layer table. *)
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun ((s : Spans.span), self) ->
      if s.job >= 0 then
        Hashtbl.replace by_name s.name (self +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0))
    selfs;
  let job_total = span_total "job" in
  Printf.printf "layer self time per job (traced jobs: %d, mean job wall %.6f s):\n" n_jobs
    (job_total /. float_of_int (max 1 n_jobs));
  List.iter
    (fun (name, self) ->
      Printf.printf "  %-18s %.6f s  %5.1f%%\n" name (self /. float_of_int (max 1 n_jobs))
        (100.0 *. self /. Float.max job_total 1e-12))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []));
  let unattributed = M.ratio (self_of "job") job_total in
  Printf.printf "unattributed remainder: %.6f s of %.6f s job wall (%.2f%%)\n" unattributed.num
    job_total (100.0 *. M.value unattributed);
  emit_ratio "job.unattributed_share" unattributed "ratio";
  List.iter
    (fun layer -> emit_ratio (layer ^ ".self_s") (per_job (self_of layer)) "s")
    [ "apps"; "sched"; "service"; "loadgen" ];
  (* Scheduler counters, summed over every traced job's events. *)
  let sum f = List.fold_left (fun acc (_, (e : Obs.stamped)) -> acc + f e.event) 0 d.d_events in
  let rounds = sum (function Obs.Run_end { rounds; _ } -> rounds | _ -> 0) in
  let generations = sum (function Obs.Run_end { generations; _ } -> generations | _ -> 0) in
  let committed = sum (function Obs.Worker_counters w -> w.committed | _ -> 0) in
  let aborted = sum (function Obs.Worker_counters w -> w.aborted | _ -> 0) in
  let spins = sum (function Obs.Worker_counters w -> w.spins | _ -> 0) in
  let parks = sum (function Obs.Worker_counters w -> w.parks | _ -> 0) in
  let work = sum (function Obs.Worker_counters w -> w.work | _ -> 0) in
  let atomics = sum (function Obs.Worker_counters w -> w.atomics | _ -> 0) in
  let phase p =
    List.fold_left
      (fun acc (_, (e : Obs.stamped)) ->
        match e.event with Obs.Phase_time { phase; dt_s; _ } when phase = p -> acc +. dt_s | _ -> acc)
      0.0 d.d_events
  in
  let fi = float_of_int in
  let inspect = phase Obs.Inspect and select = phase Obs.Select in
  let run_total = span_total "sched.run" in
  (* The benchmark's call into the library: an app entry point, or a
     query's execution inside Server.drain. *)
  let call_total =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.job >= 0 && (Spans.layer s.name = "apps" || s.name = "service.exec") then
          acc +. (s.stop -. s.start)
        else acc)
      0.0 all
  in
  emit_ratio "pool.spins_per_round" (M.ratio_i spins rounds) "count";
  emit_ratio "pool.park_ratio" (M.ratio_i parks (spins + parks)) "ratio";
  emit_ratio "sched.outside_s" (per_job (call_total -. run_total)) "s";
  emit_ratio "sched.glue_s" (per_job (run_total -. inspect -. select)) "s";
  emit_ratio "sched.rounds" (per_job (fi rounds)) "count";
  emit_ratio "sched.generations" (per_job (fi generations)) "count";
  emit_ratio "sched.inspect_s" (per_job inspect) "s";
  emit_ratio "sched.select_s" (per_job select) "s";
  emit_ratio "sched.tasks_per_round"
    (M.ratio_i (sum (function Obs.Round_begin { window; _ } -> window | _ -> 0)) rounds)
    "count";
  emit_ratio "sched.buckets" (per_job (fi (sum (function Obs.Bucket_opened _ -> 1 | _ -> 0)))) "count";
  emit_ratio "sched.efficiency" (M.ratio_i committed work) "ratio";
  emit_ratio "sched.abort_ratio" (M.ratio_i aborted (committed + aborted)) "ratio";
  emit_ratio "sched.atomics_per_commit" (M.ratio_i atomics committed) "count";
  (* A round's time is the sum of its timed phases. *)
  let round_times = Hashtbl.create 1024 in
  List.iter
    (fun (job, (e : Obs.stamped)) ->
      match e.event with
      | Obs.Phase_time { round; dt_s; _ } ->
          let k = (job, round) in
          Hashtbl.replace round_times k (dt_s +. Option.value (Hashtbl.find_opt round_times k) ~default:0.0)
      | _ -> ())
    d.d_events;
  let rt = Array.of_seq (Hashtbl.to_seq_values round_times) in
  emit "sched.round_s.p50" (if Array.length rt = 0 then 0.0 else M.median rt) "s"
    ~note:(Printf.sprintf "of %d rounds" (Array.length rt));
  emit_ratio "obs.events_per_job" (per_job (fi (List.length (List.filter (fun (j, _) -> j >= 0) d.d_events)))) "count";
  (* Set-up spans. *)
  let setup name =
    List.fold_left
      (fun acc (s : Spans.span) ->
        if s.job = -1 && (s.name = name || Spans.layer s.name = name) then acc +. (s.stop -. s.start) else acc)
      0.0 d.d_spans
  in
  emit "graphlib.build_s" (setup "graphlib") "s";
  emit "pool.create_s" (setup "pool.create") "s";
  emit "service.catalog_s" (setup "service.catalog") "s"

let write_and_read sp ~workload ~seed =
  let dir = Filename.concat "perfbench" "out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" workload seed) in
  Spans.write sp path;
  Printf.printf "trace dump: %s\n" path;
  match Spans.read path with Ok d -> d | Error msg -> failwith ("bench: " ^ msg)

(* Traced over untraced job time, the same jobs run both ways. *)
let emit_overhead plain traced =
  emit "obs.trace_overhead" (M.paired_median plain traced) "x"
    ~note:(Printf.sprintf "median of %d paired jobs" (min (Array.length plain) (Array.length traced)))

(* Serial references and the det-over-serial tax, per app. *)
let emit_tax samples =
  let apps = [ "bfs"; "sssp"; "cc"; "boruvka"; "dmr" ] in
  List.iter
    (fun app ->
      let det, ser =
        List.fold_left
          (fun (d, s) (a, det_s, serial_s) -> if a = app then (d +. det_s, s +. serial_s) else (d, s))
          (0.0, 0.0) samples
      in
      emit_ratio ("apps.tax_x." ^ app) (M.ratio det ser) "x")
    apps;
  emit_ratio "apps.serial_s"
    (M.ratio (List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 samples) (float_of_int (List.length samples)))
    "s"

(* ------------------------------------------------------------------ *)
(* Workload runs                                                       *)
(* ------------------------------------------------------------------ *)

let zero_service () =
  List.iter (fun n -> emit n 0.0 "s" ~note:"no service layer on this workload")
    [ "service.submit_s"; "service.queue_wait_s.p50"; "service.exec_s.p50" ];
  emit "service.batch_jobs" 0.0 "count" ~note:"no service layer on this workload";
  emit "loadgen.lag_s.max" 0.0 "s" ~note:"closed loop";
  emit "loadgen.offered_per_s" 0.0 "1/s" ~note:"closed loop"

let run_closed ~cycle ~workload ~seed ~seconds ~trace ~build ~pool_of ~graph_bytes ~make =
  let sp = Spans.create () in
  let inputs, setup_s =
    repeated_setup ~reps:(if trace then 1 else setup_reps) (build ~seed sp) (fun i ->
        Galois.Pool.shutdown (pool_of i))
  in
  let make = make inputs ~seed in
  warm_up ~cycle make;
  if not trace then begin
    let jobs = closed_loop ~cycle ~seconds make in
    ignore (replay ~threads:1 make jobs);
    emit "setup_s" setup_s "s" ~note:(Printf.sprintf "median of %d set-ups" setup_reps);
    emit_latency ~jobs_per_s:(M.ratio (float_of_int (List.length jobs)) (busy jobs)) (job_latencies jobs);
    emit "peak_rss_mb" (peak_rss_mb ()) "MB"
  end
  else begin
    (* Untraced then traced halves over the same job sequence. *)
    let plain = closed_loop ~cycle ~seconds:(seconds /. 2.0) make in
    let traced = closed_loop ~spans:sp ~cycle ~seconds:(seconds /. 2.0) make in
    emit_overhead (job_latencies plain) (job_latencies traced);
    let gc, commits, n = replay ~threads:1 make plain in
    emit_gc gc ~commits ~jobs:n;
    emit_tax (List.map (fun j -> (j.app, j.wall_s, (make j.idx).serial_s ())) plain);
    emit "graphlib.graph_bytes" (float_of_int (graph_bytes inputs)) "bytes";
    zero_service ();
    analyse (write_and_read sp ~workload ~seed)
  end;
  Galois.Pool.shutdown (pool_of inputs)

let serve_spans sp run =
  let w t = t +. run.wall_offset in
  Array.iter
    (fun x ->
      let job = x.s_job and completed = x.drained.start +. x.drained.exec in
      let root = Spans.add sp ~job ~parent:(-1) ~name:"job" ~start:(w x.due) ~stop:(w completed) in
      let add name a b = ignore (Spans.add sp ~job ~parent:root ~name ~start:(w a) ~stop:(w b)) in
      add "loadgen.lag" x.due x.submitted;
      add "service.submit" x.submitted (x.submitted +. x.submit_s);
      add "service.queue" (x.submitted +. x.submit_s) x.drained.start;
      add "service.exec" x.drained.start completed)
    run.served;
  List.iter
    (fun (a, b) -> ignore (Spans.add sp ~job:(-2) ~parent:(-1) ~name:"service.drain" ~start:(w a) ~stop:(w b)))
    run.drains

let serial_of_query s (q : Service.Query.t) =
  let entry = Option.get (Service.Catalog.find s.catalog (Service.Query.graph q)) in
  let g = entry.graph in
  match q with
  | Bfs { source; _ } -> ("bfs", timed (fun () -> ignore (Apps.Bfs.serial g ~source)))
  | Sssp { source; _ } ->
      ("sssp", timed (fun () -> ignore (Apps.Sssp.serial g (Option.get entry.weights) ~source)))
  | Cc _ -> ("cc", timed (fun () -> ignore (Apps.Cc.serial g)))

let run_serve ~seed ~seconds ~trace =
  let sp = Spans.create () in
  let s, setup_s =
    repeated_setup ~reps:(if trace then 1 else setup_reps) (build_serve sp) (fun s ->
        Galois.Pool.shutdown s.spool)
  in
  serve_warm_up s ~seed;
  let lags run = Array.map (fun x -> x.submitted -. x.due) run.served in
  if not trace then begin
    let queries = serve_queries ~seed ~seconds in
    let run = open_loop s queries in
    check_responses run;
    ignore (replay_served ~threads:1 s queries run);
    emit "setup_s" setup_s "s" ~note:(Printf.sprintf "median of %d set-ups" setup_reps);
    let completed = Array.length run.served in
    emit_latency
      ~jobs_per_s:(M.ratio (float_of_int completed) (serve_busy run))
      (Array.map (fun x -> x.latency) run.served);
    emit "peak_rss_mb" (peak_rss_mb ()) "MB";
    Printf.printf "loadgen: %d queries at %.1f/s, max lag %.6f s\n" completed serve_rate
      (M.max_of (lags run))
  end
  else begin
    let queries = serve_queries ~seed ~seconds:(seconds /. 2.0) in
    let plain = open_loop s queries in
    check_responses plain;
    let gc, commits = replay_served ~threads:1 s queries plain in
    let sinks = Array.init (List.length queries) (fun _ -> list_sink ()) in
    let traced = open_loop ~job_sink:(fun i -> fst sinks.(i)) s queries in
    check_responses traced;
    ignore (replay_served ~threads:1 s queries traced);
    let exec run = Array.map (fun x -> x.drained.exec) run.served in
    emit_overhead (exec plain) (exec traced);
    emit_gc gc ~commits ~jobs:(List.length queries);
    emit_tax
      (Array.to_list
         (Array.map
            (fun x ->
              let app, serial = serial_of_query s x.query in
              (app, x.drained.exec, serial))
            plain.served));
    emit "graphlib.graph_bytes" (float_of_int (Service.Catalog.total_graph_bytes s.catalog)) "bytes";
    let n = float_of_int (Array.length plain.served) in
    emit_ratio "service.submit_s" (M.ratio (M.sum (Array.map (fun x -> x.submit_s) plain.served)) n) "s";
    emit "service.queue_wait_s.p50" (M.median (Array.map (fun x -> x.drained.queue_wait) plain.served)) "s";
    emit "service.exec_s.p50" (M.median (Array.map (fun x -> x.drained.exec) plain.served)) "s";
    emit_ratio "service.batch_jobs" (M.ratio n (float_of_int (List.length plain.drains))) "count";
    emit "loadgen.lag_s.max" (M.max_of (lags plain)) "s";
    let first = plain.served.(0).submitted and last = plain.served.(Array.length plain.served - 1).submitted in
    emit_ratio "loadgen.offered_per_s" (M.ratio (n -. 1.0) (last -. first)) "1/s";
    serve_spans sp traced;
    Array.iteri (fun i (_, contents) -> Spans.add_events sp ~job:i (contents ())) sinks;
    analyse (write_and_read sp ~workload:"serve" ~seed)
  end;
  Galois.Pool.shutdown s.spool

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let usage = "bench --workload traverse|serve|morph --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | arg :: _ -> Printf.eprintf "bench: unexpected argument %S\nusage: %s\n" arg usage; exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some seed, Some seconds, Some trace when seconds > 0.0 -> (seed, seconds, trace)
    | _ -> Printf.eprintf "usage: %s\n" usage; exit 2
  in
  (match !workload with
  | "traverse" ->
      run_closed ~cycle:3 ~workload:"traverse" ~seed ~seconds ~trace ~build:build_traverse
        ~pool_of:(fun t -> t.tpool) ~graph_bytes:(fun t -> Csr.memory_bytes t.tg) ~make:traverse_job
  | "morph" ->
      run_closed ~cycle:2 ~workload:"morph" ~seed ~seconds ~trace ~build:build_morph
        ~pool_of:(fun m -> m.mpool)
        ~graph_bytes:(fun m -> Array.fold_left (fun acc (g, _) -> acc + Csr.memory_bytes g) 0 m.graphs)
        ~make:morph_job
  | "serve" -> run_serve ~seed ~seconds ~trace
  | w -> Printf.eprintf "bench: unknown workload %S\nusage: %s\n" w usage; exit 2);
  let ms = List.rev !metrics in
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "%-32s %.9g %s%s\n" name v unit (if note = "" then "" else "  [" ^ note ^ "]"))
    ms;
  let correct = tally.failed = 0 in
  Printf.printf "fail_ratio %.6g (%d failed / %d attempted)\n"
    (M.value (M.ratio_i tally.failed tally.attempted)) tally.failed tally.attempted;
  print_endline
    (M.result_line ~correct ~attempted:tally.attempted ~failed:tally.failed
       (List.map (fun (n, v, u, _) -> (n, v, u)) ms));
  if not correct then exit 1
