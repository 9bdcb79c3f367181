let check_float = Alcotest.(check (float 1e-9))

let test_summary_stats () =
  check_float "mean" 2.0 (Analysis.Summary.mean [ 1.0; 2.0; 3.0 ]);
  check_float "median odd" 2.0 (Analysis.Summary.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Analysis.Summary.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "geomean" 2.0 (Analysis.Summary.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "max" 4.0 (Analysis.Summary.maximum [ 4.0; 1.0; 2.0 ]);
  check_float "min" 1.0 (Analysis.Summary.minimum [ 4.0; 1.0; 2.0 ])

let test_summary_validation () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Summary.mean: empty") (fun () ->
      ignore (Analysis.Summary.mean []));
  Alcotest.check_raises "geomean non-positive"
    (Invalid_argument "Summary.geomean: non-positive value") (fun () ->
      ignore (Analysis.Summary.geomean [ 1.0; 0.0 ]))

let test_regression_exact_line () =
  let points = List.map (fun x -> (float_of_int x, (2.0 *. float_of_int x) +. 1.0)) [ 0; 1; 2; 3 ] in
  let fit = Analysis.Regression.fit points in
  check_float "b0" 1.0 fit.Analysis.Regression.b0;
  check_float "b1" 2.0 fit.b1;
  check_float "perfect R2" 1.0 fit.r2;
  check_float "predict" 7.0 (Analysis.Regression.predict fit 3.0)

let test_regression_noisy () =
  let points = [ (0.0, 0.1); (1.0, 0.9); (2.0, 2.2); (3.0, 2.8); (4.0, 4.1) ] in
  let fit = Analysis.Regression.fit points in
  Alcotest.(check bool) "good but imperfect fit" true (fit.Analysis.Regression.r2 > 0.9 && fit.r2 < 1.0)

let test_regression_validation () =
  Alcotest.check_raises "too few points"
    (Invalid_argument "Regression.fit: need at least two points") (fun () ->
      ignore (Analysis.Regression.fit [ (1.0, 1.0) ]));
  Alcotest.check_raises "degenerate x" (Invalid_argument "Regression.fit: degenerate x values")
    (fun () -> ignore (Analysis.Regression.fit [ (1.0, 1.0); (1.0, 2.0) ]))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_table_rendering () =
  let t = Analysis.Table.make ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let s = Fmt.str "%a" Analysis.Table.pp t in
  Alcotest.(check bool) "contains rule" true (contains ~sub:"---" s);
  Alcotest.(check bool) "contains cells" true (contains ~sub:"333" s)

let test_table_validation () =
  Alcotest.check_raises "ragged rows" (Invalid_argument "Table.make: row width differs from header")
    (fun () -> ignore (Analysis.Table.make ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_formatters () =
  Alcotest.(check string) "f2" "3.14" (Analysis.Table.f2 3.14159);
  Alcotest.(check string) "xf" "2.40X" (Analysis.Table.xf 2.4);
  Alcotest.(check string) "i" "42" (Analysis.Table.i 42)

(* --- Bench_record: the committed baselines are the codec's fixtures. *)

let baseline_dir = "../bench/baseline"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let baselines () =
  Sys.readdir baseline_dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat baseline_dir f)))

let parse_record label text =
  match Analysis.Bench_record.of_json text with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" label e

let test_bench_record_baselines () =
  let files = baselines () in
  Alcotest.(check bool) "baselines present" true (files <> []);
  List.iter
    (fun (f, text) ->
      let r = parse_record f text in
      Alcotest.(check string) (f ^ " byte for byte") text (Analysis.Bench_record.to_json r);
      (* The same record with CRLF line ends: '\r' is JSON whitespace. *)
      let crlf = String.concat "\r\n" (String.split_on_char '\n' text) in
      Alcotest.(check string) (f ^ " CRLF") text
        (Analysis.Bench_record.to_json (parse_record (f ^ " CRLF") crlf)))
    files

let test_bench_record_escapes () =
  let _, text = List.hd (baselines ()) in
  let r = { (parse_record "baseline" text) with app = "a\"b\\c\td\re\nf\001" } in
  let r' = parse_record "escaped" (Analysis.Bench_record.to_json r) in
  Alcotest.(check string) "app round-trips" r.app r'.app

let test_bench_record_rejects () =
  let _, text = List.hd (baselines ()) in
  let lines = String.split_on_char '\n' text in
  let field k l = String.starts_with ~prefix:(Printf.sprintf "  %S:" k) l in
  let edit f = String.concat "\n" (f lines) in
  let after_brace extra = edit (fun ls -> List.hd ls :: extra :: List.tl ls) in
  let reject label t =
    match Analysis.Bench_record.of_json t with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" label
  in
  ignore (parse_record "unedited" text);
  reject "missing field" (edit (List.filter (fun l -> not (field "seed" l))));
  reject "extra field" (after_brace {|  "bogus": 1,|});
  reject "duplicate field" (after_brace {|  "seed": 1,|});
  reject "string for int"
    (edit (List.map (fun l -> if field "size" l then {|  "size": "1",|} else l)));
  reject "number for string"
    (edit (List.map (fun l -> if field "app" l then {|  "app": 1,|} else l)));
  reject "trailing characters" (text ^ "}")

(* Property: median is invariant under permutation and lies within
   min..max. *)
let prop_median_bounds =
  QCheck.Test.make ~name:"median within bounds" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range (-1000.) 1000.))
    (fun l ->
      let m = Analysis.Summary.median l in
      m >= Analysis.Summary.minimum l && m <= Analysis.Summary.maximum l)

let suite =
  [
    Alcotest.test_case "summary statistics" `Quick test_summary_stats;
    Alcotest.test_case "summary validation" `Quick test_summary_validation;
    Alcotest.test_case "regression on exact line" `Quick test_regression_exact_line;
    Alcotest.test_case "regression on noisy data" `Quick test_regression_noisy;
    Alcotest.test_case "regression validation" `Quick test_regression_validation;
    Alcotest.test_case "table rendering" `Quick test_table_rendering;
    Alcotest.test_case "table validation" `Quick test_table_validation;
    Alcotest.test_case "cell formatters" `Quick test_formatters;
    Alcotest.test_case "bench record: baselines round-trip" `Quick test_bench_record_baselines;
    Alcotest.test_case "bench record: string escapes" `Quick test_bench_record_escapes;
    Alcotest.test_case "bench record: rejects bad records" `Quick test_bench_record_rejects;
    QCheck_alcotest.to_alcotest prop_median_bounds;
  ]
