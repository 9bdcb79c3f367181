(* The benchmark's metric math on synthetic samples: the tail rule, self
   time under overlapping child spans, due-time latency, queue wait from
   drain order, ratios and their bases, and the traced pass's dump. *)

module M = Perfbench.Metrics
module S = Perfbench.Spans

let close = Alcotest.(check (float 1e-9))

let test_median () =
  close "odd" 2.0 (M.median [| 3.0; 1.0; 2.0 |]);
  close "even" 2.5 (M.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Metrics.median: no samples") (fun () ->
      ignore (M.median [||]))

let test_tail_rule () =
  Alcotest.(check bool) "ten samples have no rank with ten beyond" true
    (M.tail (Array.init 10 float_of_int) = None);
  (match M.tail [| 5.0; 1.0; 4.0; 9.0; 2.0; 8.0; 3.0; 7.0; 6.0; 10.0; 11.0 |] with
  | Some t ->
      close "11 samples: the smallest" 1.0 t.value;
      close "its percentile" (100.0 /. 11.0) t.percentile;
      Alcotest.(check int) "beyond" 10 t.beyond
  | None -> Alcotest.fail "11 samples must give a tail");
  (* 1..100 in scrambled order: rank 90 is p90, the value 90. *)
  match M.tail (Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1))) with
  | Some t ->
      close "p90 value" 90.0 t.value;
      close "p90" 90.0 t.percentile;
      Alcotest.(check int) "samples" 100 t.samples
  | None -> Alcotest.fail "100 samples must give a tail"

let test_self_time_overlap () =
  (* Children [1,4] and [3,6] overlap; [8,12] sticks out of the parent. *)
  close "union of children" 3.0
    (M.self_time ~start:0.0 ~stop:10.0 [ (3.0, 6.0); (8.0, 12.0); (1.0, 4.0) ]);
  close "nested child counts once" 6.0 (M.self_time ~start:0.0 ~stop:10.0 [ (2.0, 6.0); (3.0, 4.0) ]);
  close "child outside" 10.0 (M.self_time ~start:0.0 ~stop:10.0 [ (11.0, 12.0) ]);
  close "fully covered" 0.0 (M.self_time ~start:0.0 ~stop:10.0 [ (-1.0, 11.0) ])

let test_due_latency () =
  (* Due at 1.0, submitted 0.25 late, 0.5 s in the server. *)
  close "from due time" 0.75 (M.due_latency ~due:1.0 ~submitted:1.25 ~server_latency:0.5)

let test_drain_order () =
  match
    M.drain_order ~drain_start:10.0 [ (9.0, 10.5); (9.5, 11.25); (10.25, 12.0) ]
  with
  | [ a; b; c ] ->
      close "first starts with the drain" 10.0 a.start;
      close "first waits from due" 1.0 a.queue_wait;
      close "first exec" 0.5 a.exec;
      close "second starts at first completion" 10.5 b.start;
      close "second waits" 1.0 b.queue_wait;
      close "second exec" 0.75 b.exec;
      close "third waits" 1.0 c.queue_wait;
      close "third exec" 0.75 c.exec
  | _ -> Alcotest.fail "one entry per job"

let test_ratio_base () =
  let r = M.ratio_i 3 4 in
  close "value" 0.75 (M.value r);
  Alcotest.(check string) "printed with its base" "0.75 (3 / 4)" (Format.asprintf "%a" M.pp_ratio r);
  close "zero base" 0.0 (M.value (M.ratio 5.0 0.0));
  close "paired median" 2.0 (M.paired_median [| 1.0; 2.0; 4.0; 9.0 |] [| 2.0; 5.0; 4.0 |])

let test_result_line () =
  Alcotest.(check string) "json"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    (M.result_line ~correct:true ~attempted:3 ~failed:0 [ ("setup_s", 0.5, "s") ])

(* One job: root [0,10] and a call span with the same interval; the run
   [1,9] inside has an inspect phase [1,3] and a select phase [4,5]. *)
let test_dump_and_self_times () =
  let t = S.create () in
  let root = S.add t ~job:0 ~parent:(-1) ~name:"job" ~start:100.0 ~stop:110.0 in
  ignore (S.add t ~job:0 ~parent:root ~name:"apps.bfs" ~start:100.0 ~stop:110.0);
  ignore (S.add t ~job:(-1) ~parent:(-1) ~name:"pool.create" ~start:90.0 ~stop:91.0);
  let ev at event = { Obs.at_s = at; event } in
  S.add_events t ~job:0
    [
      ev 101.0 (Obs.Run_begin { policy = "det:2"; threads = 2; tasks = 1 });
      ev 103.0 (Obs.Phase_time { round = 1; phase = Obs.Inspect; dt_s = 2.0 });
      ev 105.0 (Obs.Phase_time { round = 1; phase = Obs.Select; dt_s = 1.0 });
      ev 109.0 (Obs.Run_end { commits = 1; rounds = 1; generations = 1 });
    ];
  let path = "perfbench_test_dump.tsv" in
  S.write t path;
  let d = match S.read path with Ok d -> d | Error msg -> Alcotest.fail msg in
  Sys.remove path;
  Alcotest.(check int) "spans read back" 3 (List.length d.d_spans);
  Alcotest.(check int) "events read back" 4 (List.length d.d_events);
  let job_spans = List.filter (fun (s : S.span) -> s.job = 0) d.d_spans in
  let derived = S.derive ~next_id:100 job_spans (List.map snd d.d_events) in
  let self name =
    List.assoc name
      (List.map (fun ((s : S.span), v) -> (s.name, v)) (S.self_times (d.d_spans @ derived)))
  in
  close "unattributed" 0.0 (self "job");
  close "outside the run" 2.0 (self "apps.bfs");
  close "glue" 5.0 (self "sched.run");
  close "inspect" 2.0 (self "sched.inspect");
  close "select" 1.0 (self "sched.select");
  Alcotest.(check string) "layer" "sched" (S.layer "sched.inspect")

let () =
  Alcotest.run "perfbench"
    [
      ( "metrics",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "self time with overlapping children" `Quick test_self_time_overlap;
          Alcotest.test_case "due-time latency" `Quick test_due_latency;
          Alcotest.test_case "queue wait from drain order" `Quick test_drain_order;
          Alcotest.test_case "ratios carry their base" `Quick test_ratio_base;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ("spans", [ Alcotest.test_case "dump round trip and self times" `Quick test_dump_and_self_times ]);
    ]
