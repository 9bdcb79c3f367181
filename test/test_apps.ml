(* End-to-end application tests: each benchmark's Galois program (under
   serial, non-deterministic and deterministic policies), its PBBS-style
   deterministic variant, and its sequential baseline must all agree on
   the problem's answer — and the deterministic variants must be
   thread-portable. *)

module Csr = Graphlib.Csr
module Gen = Graphlib.Generators
module Point = Geometry.Point

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let policies = [ ("serial", Galois.Policy.serial); ("nondet", Galois.Policy.nondet 3); ("det", Galois.Policy.det 3) ]

(* --- bfs -------------------------------------------------------------- *)

let bfs_graph () = Gen.kout ~seed:5 ~n:3000 ~k:5 ()

let test_bfs_all_variants_agree () =
  let g = bfs_graph () in
  let reference = Apps.Bfs.serial g ~source:0 in
  check_bool "serial result validates" true (Apps.Bfs.validate g ~source:0 reference);
  List.iter
    (fun (name, policy) ->
      let dist, report = Apps.Bfs.galois ~policy g ~source:0 in
      check_bool (name ^ " commits > 0") true (report.stats.commits > 0);
      if dist <> reference then Alcotest.failf "bfs %s differs from serial" name)
    policies;
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let dist, _, _ = Apps.Bfs.pbbs ~pool g ~source:0 in
      if dist <> reference then Alcotest.fail "pbbs bfs differs from serial")

let test_bfs_disconnected () =
  (* Nodes unreachable from the source stay at [unreached]. *)
  let g = Csr.of_edges ~n:5 [| (0, 1); (1, 2); (3, 4) |] in
  let dist = Apps.Bfs.serial g ~source:0 in
  check_int "reached" 2 dist.(2);
  check_bool "unreached" true (dist.(3) = Apps.Bfs.unreached && dist.(4) = Apps.Bfs.unreached);
  List.iter
    (fun (name, policy) ->
      let d, _ = Apps.Bfs.galois ~policy g ~source:0 in
      if d <> dist then Alcotest.failf "bfs %s differs on disconnected graph" name)
    policies

(* --- sssp ------------------------------------------------------------- *)

let test_sssp_weight_plane_equivalent () =
  (* Weights from a catalog-side array and the same values embedded in
     the graph's off-heap plane must produce identical distances AND
     identical schedules — the schedule depends on weight values only,
     not on where they are stored. *)
  let g = Gen.kout ~seed:7 ~n:2000 ~k:5 () in
  let w = Graphlib.Graph_io.random_weights ~seed:8 g in
  let gw = Graphlib.Graph_io.attach_random_weights ~seed:8 g in
  let policy = Galois.Policy.det 3 in
  let dist_arr, rep_arr = Apps.Sssp.galois ~policy g w ~source:0 in
  let dist_pl, rep_pl = Apps.Sssp.galois_weighted ~policy gw ~source:0 in
  if dist_arr <> dist_pl then Alcotest.fail "sssp distances differ by weight source";
  check_bool "schedule digests equal" true
    (Galois.Trace_digest.equal rep_arr.stats.digest rep_pl.stats.digest)

let test_sssp_delta_stepping_payoff () =
  (* Soft-priority scheduling end to end on a weighted R-MAT: prio=auto
     keeps the prio=off (= Dijkstra) distances, both digests are
     thread-invariant, and the bucketed schedule cuts abstract work by
     at least a quarter — the delta-stepping payoff. *)
  let g =
    Graphlib.Graph_io.attach_random_weights ~seed:2015 ~max_weight:100
      (Gen.rmat ~seed:2014 ~scale:13 ~edge_factor:8 ())
  in
  let weights = Option.get (Csr.weights_array g) in
  let reference = Apps.Sssp.serial g weights ~source:0 in
  let run ?(priority = Galois.Policy.Prio_off) threads =
    let policy =
      Galois.Policy.det ~options:(Galois.Policy.Det_options.make ~priority ()) threads
    in
    let dist, report = Apps.Sssp.galois_weighted ~policy g ~source:0 in
    (dist, report.stats)
  in
  let auto = Galois.Policy.Prio_auto in
  let dist_off, off4 = run 4 and _, off1 = run 1 in
  let dist_auto, auto4 = run ~priority:auto 4 in
  let _, auto1 = run ~priority:auto 1 and _, auto2 = run ~priority:auto 2 in
  let same = Galois.Trace_digest.equal in
  check_bool "prio=off distances match Dijkstra" true (dist_off = reference);
  check_bool "prio=auto distances match Dijkstra" true (dist_auto = reference);
  check_bool "prio=off digest thread-invariant" true (same off4.digest off1.digest);
  check_bool "prio=auto digest thread-invariant (1,2,4)" true
    (same auto4.digest auto1.digest && same auto4.digest auto2.digest);
  check_bool "prio=auto bucketizes" true (auto4.buckets > 0 && off4.buckets = 0);
  check_bool "schedules differ" false (same off4.digest auto4.digest);
  let drop = 1.0 -. (float_of_int auto4.work_units /. float_of_int off4.work_units) in
  if drop < 0.25 then
    Alcotest.failf "work_units off=%d auto=%d: drop %.1f%% below the 25%% floor"
      off4.work_units auto4.work_units (100.0 *. drop)

(* --- mis -------------------------------------------------------------- *)

let mis_graph () = Csr.symmetrize (Gen.kout ~seed:11 ~n:2000 ~k:4 ())

let test_mis_all_valid () =
  let g = mis_graph () in
  let serial_mis = Apps.Mis.serial g in
  check_bool "serial maximal independent" true (Apps.Mis.is_maximal_independent g serial_mis);
  List.iter
    (fun (name, policy) ->
      let in_mis, _ = Apps.Mis.galois ~policy g in
      check_bool (name ^ " maximal independent") true (Apps.Mis.is_maximal_independent g in_mis))
    policies

let test_mis_pbbs_lexicographic () =
  (* PBBS deterministic reservations = sequential greedy in index
     order. *)
  let g = mis_graph () in
  let serial_mis = Apps.Mis.serial g in
  Parallel.Domain_pool.with_pool 4 (fun pool ->
      let in_mis, _ = Apps.Mis.pbbs ~pool g in
      if in_mis <> serial_mis then Alcotest.fail "pbbs MIS differs from lexicographic greedy")

let test_mis_det_portable () =
  let g = mis_graph () in
  let ref_mis, _ = Apps.Mis.galois ~policy:(Galois.Policy.det 1) g in
  List.iter
    (fun t ->
      let m, _ = Apps.Mis.galois ~policy:(Galois.Policy.det t) g in
      if m <> ref_mis then Alcotest.failf "det MIS differs at %d threads" t)
    [ 2; 4 ]

(* --- pfp -------------------------------------------------------------- *)

let test_pfp_flow_value () =
  let g, caps, source, sink = Gen.flow_network ~seed:3 ~n:300 ~k:4 () in
  let reference =
    let net = Apps.Flow_network.of_graph g caps ~source ~sink in
    (Apps.Pfp.serial net).Apps.Pfp.flow_value
  in
  check_bool "positive flow" true (reference > 0);
  List.iter
    (fun (name, policy) ->
      let net = Apps.Flow_network.of_graph g caps ~source ~sink in
      let result = Apps.Pfp.galois ~policy net in
      check_int (Printf.sprintf "pfp %s flow value" name) reference result.Apps.Pfp.flow_value;
      let ok, sink_flow = Apps.Flow_network.check_flow net in
      check_bool (name ^ " conservation") true ok;
      check_int (name ^ " balance at sink") reference sink_flow)
    policies

let test_pfp_small_known () =
  (* s -> a -> t with caps 3, 2: max flow 2; plus s -> t cap 1: total 3. *)
  let g = Csr.of_edges ~n:3 [| (0, 1); (1, 2); (0, 2) |] in
  let caps = [| 3; 2; 1 |] in
  let net = Apps.Flow_network.of_graph g caps ~source:0 ~sink:2 in
  check_int "known max flow" 3 (Apps.Pfp.serial net).Apps.Pfp.flow_value

(* --- dt --------------------------------------------------------------- *)

let dt_points n = Point.random_unit_square ~seed:31 n

let assert_mesh_good name mesh npoints =
  (match Mesh.check_consistency mesh with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e);
  check_int (name ^ ": no Delaunay violations") 0 (Mesh.delaunay_violations mesh);
  (* All real points appear. *)
  let seen = Hashtbl.create 64 in
  List.iter (fun tri -> Array.iter (fun v -> Hashtbl.replace seen v ()) tri.Mesh.v)
    (Mesh.triangles mesh);
  for pid = 0 to npoints - 1 do
    if not (Hashtbl.mem seen pid) then Alcotest.failf "%s: point %d missing" name pid
  done

let test_dt_variants () =
  let n = 300 in
  let pts = dt_points n in
  let serial_mesh = Apps.Dt.serial pts in
  assert_mesh_good "serial" serial_mesh n;
  let canon = Apps.Dt.canonical serial_mesh in
  List.iter
    (fun (name, policy) ->
      let mesh, _ = Apps.Dt.galois ~policy pts in
      assert_mesh_good name mesh n;
      (* The Delaunay triangulation of points in general position is
         unique, so every variant must produce the same triangles. *)
      if Apps.Dt.canonical mesh <> canon then Alcotest.failf "dt %s differs" name)
    policies;
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let mesh, _ = Apps.Dt.pbbs ~pool pts in
      assert_mesh_good "pbbs" mesh n;
      if Apps.Dt.canonical mesh <> canon then Alcotest.fail "dt pbbs differs")

(* --- dmr -------------------------------------------------------------- *)

let dmr_input () =
  let pts = Point.random_unit_square ~seed:41 150 in
  Apps.Dt.serial pts

let test_dmr_variants () =
  let cfg = Apps.Dmr.default_config in
  let run_one name runner =
    let mesh = dmr_input () in
    let before = Mesh.triangle_count mesh in
    runner mesh;
    (match Mesh.check_consistency mesh with
    | Ok () -> ()
    | Error e -> Alcotest.failf "dmr %s: %s" name e);
    check_bool (name ^ ": refined") true (Apps.Dmr.refined cfg mesh);
    check_bool (name ^ ": grew") true (Mesh.triangle_count mesh >= before)
  in
  List.iter
    (fun (name, policy) -> run_one name (fun mesh -> ignore (Apps.Dmr.galois ~policy mesh)))
    policies;
  run_one "pbbs" (fun mesh ->
      Parallel.Domain_pool.with_pool 3 (fun pool -> ignore (Apps.Dmr.pbbs ~pool mesh)))

let test_dmr_det_portable () =
  let canon_at threads =
    let mesh = dmr_input () in
    ignore (Apps.Dmr.galois ~policy:(Galois.Policy.det threads) mesh);
    Apps.Dt.canonical mesh
  in
  let reference = canon_at 1 in
  List.iter
    (fun t -> if canon_at t <> reference then Alcotest.failf "dmr det differs at %d threads" t)
    [ 2; 4 ]

(* --- PARSEC kernels --------------------------------------------------- *)

let test_blackscholes () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let options = Apps.Blackscholes.generate ~seed:2 5000 in
      let prices, profile = Apps.Blackscholes.run ~pool options in
      check_int "priced all" 5000 (Array.length prices);
      check_bool "prices finite and nonnegative" true
        (Array.for_all (fun p -> Float.is_finite p && p >= -1e-9) prices);
      check_int "tasks" 5000 profile.Apps.Kernel_profile.tasks;
      (* Defining characteristic: atomics orders of magnitude below
         tasks. *)
      check_bool "few atomics" true (profile.Apps.Kernel_profile.atomics * 100 < 5000))

let test_blackscholes_put_call_parity () =
  let base = Apps.Blackscholes.generate ~seed:4 1 in
  let o = base.(0) in
  let call = Apps.Blackscholes.price { o with call = true } in
  let put = Apps.Blackscholes.price { o with call = false } in
  let parity =
    call -. put
    -. (o.Apps.Blackscholes.spot
       -. (o.Apps.Blackscholes.strike *. exp (-.o.Apps.Blackscholes.rate *. o.Apps.Blackscholes.maturity)))
  in
  check_bool "put-call parity" true (Float.abs parity < 1e-6)

let test_bodytrack () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let result = Apps.Bodytrack.run ~pool () in
      check_bool "tracks the hidden state" true (result.Apps.Bodytrack.mean_error < 0.5);
      check_bool "coarse tasks, few atomics" true
        (result.Apps.Bodytrack.profile.Apps.Kernel_profile.atomics
         < result.Apps.Bodytrack.profile.Apps.Kernel_profile.tasks))

let test_freqmine () =
  Parallel.Domain_pool.with_pool 3 (fun pool ->
      let total, profile = Apps.Freqmine.run ~pool () in
      check_bool "found frequent itemsets" true (total > 0);
      check_bool "irregular task sizes" true
        (Array.length profile.Apps.Kernel_profile.task_costs > 0))

let test_freqmine_deterministic () =
  Parallel.Domain_pool.with_pool 1 (fun p1 ->
      Parallel.Domain_pool.with_pool 3 (fun p3 ->
          let a, _ = Apps.Freqmine.run ~pool:p1 () in
          let b, _ = Apps.Freqmine.run ~pool:p3 () in
          check_int "same itemset count across thread counts" a b))

(* Regression for the order-dependence bug detlint found: [mine] used to
   gather frequent items with [Hashtbl.fold], so the recursion order —
   and on another stdlib's bucket layout, potentially the count — hung
   off hash internals. The frequent list is now pinned by item id, and
   these exact totals pin it in place. *)
let test_freqmine_pinned_output () =
  Parallel.Domain_pool.with_pool 2 (fun pool ->
      let total, _ = Apps.Freqmine.run ~pool () in
      check_int "default-config itemset count pinned" 2878 total;
      let config =
        {
          Apps.Freqmine.default_config with
          transactions = 500;
          items = 60;
          min_support = 12;
          seed = 5;
        }
      in
      let small, _ = Apps.Freqmine.run ~config ~pool () in
      check_int "small-config itemset count pinned" 1845 small)

let suite =
  [
    Alcotest.test_case "bfs: all variants agree" `Quick test_bfs_all_variants_agree;
    Alcotest.test_case "bfs: disconnected graph" `Quick test_bfs_disconnected;
    Alcotest.test_case "sssp: weight plane = weight array" `Quick
      test_sssp_weight_plane_equivalent;
    Alcotest.test_case "sssp: delta-stepping payoff on weighted rmat" `Quick
      test_sssp_delta_stepping_payoff;
    Alcotest.test_case "mis: all variants valid" `Quick test_mis_all_valid;
    Alcotest.test_case "mis: pbbs is lexicographic greedy" `Quick test_mis_pbbs_lexicographic;
    Alcotest.test_case "mis: det portable" `Quick test_mis_det_portable;
    Alcotest.test_case "pfp: flow values agree" `Quick test_pfp_flow_value;
    Alcotest.test_case "pfp: known small instance" `Quick test_pfp_small_known;
    Alcotest.test_case "dt: all variants produce the Delaunay mesh" `Quick test_dt_variants;
    Alcotest.test_case "dmr: all variants refine" `Quick test_dmr_variants;
    Alcotest.test_case "dmr: det portable" `Quick test_dmr_det_portable;
    Alcotest.test_case "blackscholes" `Quick test_blackscholes;
    Alcotest.test_case "blackscholes put-call parity" `Quick test_blackscholes_put_call_parity;
    Alcotest.test_case "bodytrack particle filter" `Quick test_bodytrack;
    Alcotest.test_case "freqmine fp-growth" `Quick test_freqmine;
    Alcotest.test_case "freqmine deterministic" `Quick test_freqmine_deterministic;
    Alcotest.test_case "freqmine output pinned (order-independence)" `Quick
      test_freqmine_pinned_output;
  ]
