(* Tests for the observability layer: the trace ring buffer (wraparound,
   zero-allocation when disabled, sink mapping, Chrome export), telemetry
   derivation and its backward-compatible ride on the run-record schema,
   and the baseline perf gate's robustness rules. *)

module Sat = Fpgasat_sat
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module Obs = Fpgasat_obs
module Json = Obs.Json
module Trace = Obs.Trace
module Telemetry = Obs.Telemetry
module Baseline = Obs.Baseline
module Flow = C.Flow

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* a small instance for end-to-end runs *)
let small_route =
  let arch = F.Arch.create 5 in
  let rng = F.Rng.create 11 in
  let nl = F.Netlist.random ~rng ~arch ~num_nets:20 ~max_fanout:3 ~locality:2 in
  F.Global_router.route arch nl

(* ---------- Trace ring ---------- *)

let test_trace_capacity_rounds_up () =
  Alcotest.(check int) "default" Trace.default_capacity
    (Trace.capacity (Trace.create ()));
  Alcotest.(check int) "3 -> 4" 4 (Trace.capacity (Trace.create ~capacity:3 ()));
  Alcotest.(check int) "8 stays 8" 8
    (Trace.capacity (Trace.create ~capacity:8 ()));
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Trace.create: capacity < 1") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

let test_trace_records_in_order () =
  let t = Trace.create ~capacity:16 () in
  Trace.record t Trace.Restart 1 0;
  Trace.record t Trace.Restart 2 0;
  Trace.record t Trace.Reduce_db 100 40;
  let evs = Trace.events t in
  Alcotest.(check int) "length" 3 (List.length evs);
  Alcotest.(check int) "total" 3 (Trace.total t);
  (match evs with
  | [ e1; e2; e3 ] ->
      Alcotest.(check bool) "kind 1" true (e1.Trace.kind = Trace.Restart);
      Alcotest.(check int) "a 1" 1 e1.Trace.a;
      Alcotest.(check int) "a 2" 2 e2.Trace.a;
      Alcotest.(check bool) "kind 3" true (e3.Trace.kind = Trace.Reduce_db);
      Alcotest.(check int) "b 3" 40 e3.Trace.b;
      Alcotest.(check bool) "ts monotone" true
        (e1.Trace.ts <= e2.Trace.ts && e2.Trace.ts <= e3.Trace.ts)
  | _ -> Alcotest.fail "expected 3 events")

let test_trace_every_kind_roundtrips () =
  (* the ring stores kinds as small integer codes: every kind must come
     back as itself, under a name of its own *)
  let kinds =
    Trace.
      [
        Solve_begin;
        Solve_end;
        Restart;
        Reduce_db;
        Memout_poll;
        Retry;
        Quarantine;
        Inprocess;
      ]
  in
  let t = Trace.create ~capacity:16 () in
  List.iteri (fun i k -> Trace.record t k i (-i)) kinds;
  let evs = Trace.events t in
  Alcotest.(check (list string)) "kinds read back"
    (List.map Trace.kind_name kinds)
    (List.map (fun e -> Trace.kind_name e.Trace.kind) evs);
  List.iteri
    (fun i e ->
      Alcotest.(check bool) (Printf.sprintf "event %d kind" i) true
        (e.Trace.kind = List.nth kinds i);
      Alcotest.(check int) (Printf.sprintf "event %d a" i) i e.Trace.a;
      Alcotest.(check int) (Printf.sprintf "event %d b" i) (-i) e.Trace.b)
    evs;
  Alcotest.(check int) "names distinct" (List.length kinds)
    (List.length (List.sort_uniq compare (List.map Trace.kind_name kinds)))

let test_trace_ring_wraps () =
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.record t Trace.Restart i 0
  done;
  Alcotest.(check int) "total counts everything" 20 (Trace.total t);
  Alcotest.(check int) "length clamps to capacity" 8 (Trace.length t);
  let evs = Trace.events t in
  (* the retained window is the most recent [capacity] events, oldest
     first: 13..20 *)
  Alcotest.(check (list int)) "retained window"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun e -> e.Trace.a) evs)

let test_trace_concurrent_recording () =
  let t = Trace.create ~capacity:1024 () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 100 do
              Trace.record t Trace.Retry ((d * 1000) + i) 0
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no event lost" 400 (Trace.total t);
  Alcotest.(check int) "all retained" 400 (Trace.length t)

let measure_alloc f =
  (* warm up so any one-time allocation (closure specialisation etc.)
     happens outside the measured window *)
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_record_does_not_allocate () =
  let none : Trace.t option = None in
  let words =
    measure_alloc (fun () ->
        for i = 1 to 10_000 do
          Trace.record_opt none Trace.Restart i 0
        done)
  in
  Alcotest.(check (float 0.)) "disabled record_opt allocates nothing" 0. words

let test_enabled_record_does_not_allocate () =
  let t = Trace.create ~capacity:64 () in
  let words =
    measure_alloc (fun () ->
        for i = 1 to 10_000 do
          Trace.record t Trace.Restart i 0
        done)
  in
  Alcotest.(check (float 0.)) "enabled record allocates nothing" 0. words

(* The solver must not pay for events nobody listens to: solving with
   [on_event = None] (the default budget) allocates exactly as much as it
   did before the hook existed — the emission sites are a single match. *)
let test_solver_without_hook_no_event_allocation () =
  let cnf = Sat.Dimacs_cnf.parse_string "p cnf 3 4\n1 2 0\n-1 3 0\n-2 -3 0\n1 -3 0\n" in
  let solve () = ignore (Sat.Solver.solve cnf) in
  solve ();
  let baseline = measure_alloc solve in
  let hooked =
    let t = Trace.create () in
    let budget = Sat.Solver.with_event_hook (Trace.sink t) Sat.Solver.no_budget in
    let solve () = ignore (Sat.Solver.solve ~budget cnf) in
    solve ();
    measure_alloc solve
  in
  (* both are small and within noise of each other; the point is the
     unhooked path does not balloon *)
  Alcotest.(check bool)
    (Printf.sprintf "unhooked alloc (%.0f) <= hooked alloc (%.0f) + slack"
       baseline hooked)
    true
    (baseline <= hooked +. 256.)

let test_sink_maps_solver_events () =
  let t = Trace.create () in
  let sink = Trace.sink t in
  sink (Sat.Event.Restart 3);
  sink (Sat.Event.Reduce_db (200, 80));
  sink (Sat.Event.Memout_poll 12345);
  sink (Sat.Event.Inprocess (5, 9));
  let kinds = List.map (fun e -> (e.Trace.kind, e.Trace.a, e.Trace.b)) (Trace.events t) in
  Alcotest.(check bool) "mapping" true
    (kinds
    = [
        (Trace.Restart, 3, 0);
        (Trace.Reduce_db, 200, 80);
        (Trace.Memout_poll, 12345, 0);
        (Trace.Inprocess, 5, 9);
      ])

let json_mem key = function
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let test_trace_to_json_schema () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.record t Trace.Restart i 0
  done;
  let j = Trace.to_json t in
  (match json_mem "schema" j with
  | Some (Json.String s) ->
      Alcotest.(check string) "schema" Trace.schema_version s
  | _ -> Alcotest.fail "schema key missing");
  (match json_mem "dropped" j with
  | Some (Json.Int d) -> Alcotest.(check int) "dropped" 2 d
  | _ -> Alcotest.fail "dropped key missing");
  match json_mem "events" j with
  | Some (Json.List evs) -> Alcotest.(check int) "events" 4 (List.length evs)
  | _ -> Alcotest.fail "events key missing"

let test_trace_to_chrome_spans () =
  let t = Trace.create () in
  Trace.record t Trace.Solve_begin 4 0;
  Trace.record t Trace.Restart 1 0;
  Trace.record t Trace.Solve_end 4 1;
  match Trace.to_chrome t with
  | Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Json.List evs ->
          let phases =
            List.filter_map
              (fun e ->
                match json_mem "ph" e with
                | Some (Json.String p) -> Some p
                | _ -> None)
              evs
          in
          (* the begin/end pair folds into one complete span + the restart
             instant *)
          Alcotest.(check bool) "one span" true (List.mem "X" phases);
          Alcotest.(check bool) "one instant" true (List.mem "i" phases);
          Alcotest.(check int) "two events" 2 (List.length evs)
      | _ -> Alcotest.fail "traceEvents not a list")
  | _ -> Alcotest.fail "to_chrome not an object"

(* ---------- Telemetry ---------- *)

let sample_telemetry () =
  let stats = Sat.Stats.create () in
  stats.Sat.Stats.propagations <- 1000;
  stats.Sat.Stats.conflicts <- 50;
  Sat.Stats.bump_lbd stats 2;
  Sat.Stats.bump_lbd stats 2;
  Sat.Stats.bump_lbd stats 7;
  Sat.Stats.bump_lbd stats 99 (* clamps into the last bucket *);
  Sat.Stats.note_heap_words stats 123456;
  Telemetry.of_stats ~solving:0.5 ~words_allocated:4242 stats

let test_telemetry_of_stats () =
  let t = sample_telemetry () in
  Alcotest.(check (float 1e-9)) "props/s" 2000. t.Telemetry.propagations_per_sec;
  Alcotest.(check (float 1e-9)) "conflicts/s" 100. t.Telemetry.conflicts_per_sec;
  Alcotest.(check int) "hist[2]" 2 t.Telemetry.lbd_hist.(2);
  Alcotest.(check int) "hist[7]" 1 t.Telemetry.lbd_hist.(7);
  Alcotest.(check int) "hist[last] clamps" 1
    t.Telemetry.lbd_hist.(Telemetry.lbd_buckets - 1);
  Alcotest.(check int) "peak heap" 123456 t.Telemetry.peak_heap_words;
  Alcotest.(check int) "words allocated" 4242 t.Telemetry.words_allocated

let test_telemetry_zero_time_rates () =
  let stats = Sat.Stats.create () in
  stats.Sat.Stats.propagations <- 1000;
  let t = Telemetry.of_stats ~solving:0. ~words_allocated:0 stats in
  Alcotest.(check (float 0.)) "zero-time rate is 0" 0.
    t.Telemetry.propagations_per_sec

let test_telemetry_json_roundtrip () =
  let t = sample_telemetry () in
  match Telemetry.of_json (Telemetry.to_json t) with
  | Error m -> Alcotest.fail m
  | Ok t' -> Alcotest.(check bool) "roundtrip" true (Telemetry.equal t t')

let qcheck_telemetry_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"telemetry JSON round-trips bit-exactly"
    QCheck2.Gen.(
      tup4 (float_bound_exclusive 1e6) (float_bound_exclusive 1e6)
        (array_size (int_bound Telemetry.lbd_buckets) (int_bound 1000))
        (tup2 nat nat))
    (fun (props, confls, hist_prefix, (words, peak)) ->
      let lbd_hist = Array.make Telemetry.lbd_buckets 0 in
      Array.iteri (fun i v -> lbd_hist.(i) <- v) hist_prefix;
      let t =
        {
          Telemetry.propagations_per_sec = props;
          conflicts_per_sec = confls;
          lbd_hist;
          words_allocated = words;
          peak_heap_words = peak;
          solve_seconds = props /. 1000.;
        }
      in
      match Telemetry.of_json (Telemetry.to_json t) with
      | Ok t' -> Telemetry.equal t t'
      | Error _ -> false)

(* ---------- run-record compatibility ---------- *)

let run_once ~telemetry =
  Flow.(submit (default_request |> with_telemetry telemetry)) small_route
    ~width:6

let test_record_with_telemetry_roundtrips () =
  let run = run_once ~telemetry:true in
  Alcotest.(check bool) "run carries telemetry" true (run.Flow.telemetry <> None);
  let r = Eng.Run_record.of_run ~benchmark:"small" ~wall_seconds:0.1 run in
  Alcotest.(check bool) "record carries telemetry" true
    (r.Eng.Run_record.telemetry <> None);
  match Eng.Run_record.of_line (Eng.Run_record.to_line r) with
  | Error m -> Alcotest.fail m
  | Ok r' -> Alcotest.(check bool) "roundtrip" true (Eng.Run_record.equal r r')

let test_record_without_telemetry_unchanged () =
  let run = run_once ~telemetry:false in
  Alcotest.(check bool) "no telemetry by default" true (run.Flow.telemetry = None);
  let r = Eng.Run_record.of_run ~benchmark:"small" ~wall_seconds:0.1 run in
  let line = Eng.Run_record.to_line r in
  Alcotest.(check bool) "line has no telemetry key" false
    (contains line "telemetry")

(* a pre-telemetry record line, verbatim from a seed-era sweep file *)
let old_line =
  {|{"schema":"fpgasat.run/1","benchmark":"alu2","strategy":"muldirect/s1@siege","width":4,"outcome":"unroutable","timings":{"to_graph":0.001,"to_cnf":0.002,"solving":0.003},"wall_seconds":0.01,"cnf":{"vars":552,"clauses":2628},"solver":{"decisions":494,"propagations":1087,"conflicts":58,"restarts":0,"learnt_clauses":57,"learnt_literals":100,"deleted_clauses":0,"max_decision_level":101}}|}

let test_old_records_still_parse () =
  match Eng.Run_record.of_line old_line with
  | Error m -> Alcotest.fail ("old line rejected: " ^ m)
  | Ok r ->
      Alcotest.(check bool) "telemetry absent" true
        (r.Eng.Run_record.telemetry = None);
      (* and re-serialising an old record stays telemetry-free *)
      let line' = Eng.Run_record.to_line r in
      Alcotest.(check string) "byte-identical" old_line line'

(* ---------- Baseline gate ---------- *)

let base = Baseline.make [ ("solve", [ ("a", 1.0); ("b", 2.0) ]) ]

let test_baseline_json_roundtrip () =
  let b =
    Baseline.make
      [ ("encode", [ ("x", 0.125) ]); ("solve", [ ("a", 1.0); ("b", 0.0) ]) ]
  in
  match Baseline.of_string (Json.to_string (Baseline.to_json b)) with
  | Error m -> Alcotest.fail m
  | Ok b' ->
      Alcotest.(check bool) "sections survive" true
        (Baseline.sections b = Baseline.sections b')

let test_baseline_equal_passes () =
  let r = Baseline.compare ~baseline:base ~current:base () in
  Alcotest.(check bool) "ok" true r.Baseline.ok;
  match r.Baseline.sections with
  | [ s ] ->
      Alcotest.(check (option (float 1e-9))) "geomean 1" (Some 1.) s.Baseline.geomean
  | _ -> Alcotest.fail "one section expected"

let test_baseline_regression_fails () =
  let current = Baseline.make [ ("solve", [ ("a", 1.5); ("b", 3.0) ]) ] in
  let r = Baseline.compare ~tolerance:1.25 ~baseline:base ~current () in
  Alcotest.(check bool) "regressed" false r.Baseline.ok;
  let r' = Baseline.compare ~tolerance:2.0 ~baseline:base ~current () in
  Alcotest.(check bool) "looser gate passes" true r'.Baseline.ok

let test_baseline_speedup_passes () =
  let current = Baseline.make [ ("solve", [ ("a", 0.5); ("b", 1.0) ]) ] in
  let r = Baseline.compare ~baseline:base ~current () in
  Alcotest.(check bool) "faster is fine" true r.Baseline.ok

let test_baseline_missing_section_fails () =
  let current = Baseline.make [ ("other", [ ("a", 1.0) ]) ] in
  let r = Baseline.compare ~baseline:base ~current () in
  Alcotest.(check bool) "missing section fails" false r.Baseline.ok;
  match r.Baseline.sections with
  | [ s ] ->
      Alcotest.(check (list string)) "all cells missing" [ "a"; "b" ]
        (List.sort String.compare s.Baseline.missing)
  | _ -> Alcotest.fail "one section expected"

let test_baseline_missing_cell_fails () =
  let current = Baseline.make [ ("solve", [ ("a", 1.0) ]) ] in
  let r = Baseline.compare ~baseline:base ~current () in
  Alcotest.(check bool) "missing cell fails" false r.Baseline.ok;
  match r.Baseline.sections with
  | [ s ] ->
      Alcotest.(check (list string)) "b missing" [ "b" ] s.Baseline.missing;
      Alcotest.(check int) "a still compared" 1 s.Baseline.cells
  | _ -> Alcotest.fail "one section expected"

let test_baseline_extra_current_ignored () =
  let current =
    Baseline.make
      [ ("solve", [ ("a", 1.0); ("b", 2.0); ("c", 999.0) ]); ("new", [ ("z", 1.0) ]) ]
  in
  let r = Baseline.compare ~baseline:base ~current () in
  Alcotest.(check bool) "extra cells/sections ignored" true r.Baseline.ok;
  Alcotest.(check int) "one baseline section judged" 1
    (List.length r.Baseline.sections)

let test_baseline_zero_time_cells () =
  (* both sides clamp to 1 µs: 0/0 compares equal instead of NaN, and a
     0 -> 1s blowup still registers as a (huge) regression *)
  let base0 = Baseline.make [ ("solve", [ ("a", 0.0) ]) ] in
  let same = Baseline.compare ~baseline:base0 ~current:base0 () in
  Alcotest.(check bool) "0/0 passes" true same.Baseline.ok;
  let blown = Baseline.make [ ("solve", [ ("a", 1.0) ]) ] in
  let r = Baseline.compare ~baseline:base0 ~current:blown () in
  Alcotest.(check bool) "0 -> 1s fails" false r.Baseline.ok

let test_baseline_tolerance_validated () =
  Alcotest.check_raises "non-positive tolerance"
    (Invalid_argument "Baseline.compare: tolerance <= 0") (fun () ->
      ignore (Baseline.compare ~tolerance:0. ~baseline:base ~current:base ()))

let test_baseline_render_verdict () =
  let ok = Baseline.render (Baseline.compare ~baseline:base ~current:base ()) in
  Alcotest.(check bool) "PASS" true
    (String.length ok >= 4 && String.sub ok (String.length ok - 4) 4 = "PASS");
  let current = Baseline.make [ ("solve", [ ("a", 100.0); ("b", 200.0) ]) ] in
  let fail =
    Baseline.render (Baseline.compare ~baseline:base ~current ())
  in
  Alcotest.(check bool) "FAIL" true (contains fail "FAIL")

(* ---------- end-to-end: flow + trace ---------- *)

let test_flow_trace_records_solve_span () =
  let trace = Trace.create () in
  let run =
    Flow.(submit (default_request |> with_trace trace)) small_route ~width:6
  in
  Alcotest.(check bool) "run decisive" true
    (match run.Flow.outcome with
    | Flow.Routable _ | Flow.Unroutable -> true
    | _ -> false);
  let kinds = List.map (fun e -> e.Trace.kind) (Trace.events trace) in
  Alcotest.(check bool) "has begin" true (List.mem Trace.Solve_begin kinds);
  Alcotest.(check bool) "has end" true (List.mem Trace.Solve_end kinds);
  (* decisive outcome is flagged on the end event *)
  let ends = List.filter (fun e -> e.Trace.kind = Trace.Solve_end) (Trace.events trace) in
  Alcotest.(check bool) "decisive flag" true
    (List.for_all (fun e -> e.Trace.b = 1) ends)

let qtests = List.map QCheck_alcotest.to_alcotest [ qcheck_telemetry_roundtrip ]

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "capacity rounds up" `Quick
            test_trace_capacity_rounds_up;
          Alcotest.test_case "records in order" `Quick test_trace_records_in_order;
          Alcotest.test_case "every kind round-trips" `Quick
            test_trace_every_kind_roundtrips;
          Alcotest.test_case "ring wraps" `Quick test_trace_ring_wraps;
          Alcotest.test_case "concurrent recording" `Quick
            test_trace_concurrent_recording;
          Alcotest.test_case "disabled record allocation-free" `Quick
            test_disabled_record_does_not_allocate;
          Alcotest.test_case "enabled record allocation-free" `Quick
            test_enabled_record_does_not_allocate;
          Alcotest.test_case "solver without hook stays lean" `Quick
            test_solver_without_hook_no_event_allocation;
          Alcotest.test_case "sink maps solver events" `Quick
            test_sink_maps_solver_events;
          Alcotest.test_case "to_json schema" `Quick test_trace_to_json_schema;
          Alcotest.test_case "to_chrome folds spans" `Quick
            test_trace_to_chrome_spans;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "of_stats" `Quick test_telemetry_of_stats;
          Alcotest.test_case "zero-time rates" `Quick test_telemetry_zero_time_rates;
          Alcotest.test_case "json roundtrip" `Quick test_telemetry_json_roundtrip;
        ] );
      ( "run-record",
        [
          Alcotest.test_case "with telemetry roundtrips" `Quick
            test_record_with_telemetry_roundtrips;
          Alcotest.test_case "without telemetry unchanged" `Quick
            test_record_without_telemetry_unchanged;
          Alcotest.test_case "old records still parse" `Quick
            test_old_records_still_parse;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "json roundtrip" `Quick test_baseline_json_roundtrip;
          Alcotest.test_case "equal passes" `Quick test_baseline_equal_passes;
          Alcotest.test_case "regression fails" `Quick test_baseline_regression_fails;
          Alcotest.test_case "speedup passes" `Quick test_baseline_speedup_passes;
          Alcotest.test_case "missing section fails" `Quick
            test_baseline_missing_section_fails;
          Alcotest.test_case "missing cell fails" `Quick
            test_baseline_missing_cell_fails;
          Alcotest.test_case "extra current ignored" `Quick
            test_baseline_extra_current_ignored;
          Alcotest.test_case "zero-time cells" `Quick test_baseline_zero_time_cells;
          Alcotest.test_case "tolerance validated" `Quick
            test_baseline_tolerance_validated;
          Alcotest.test_case "render verdict" `Quick test_baseline_render_verdict;
        ] );
      ( "flow",
        [
          Alcotest.test_case "trace records solve span" `Quick
            test_flow_trace_records_solve_span;
        ] );
      ("properties", qtests);
    ]
