(* Tests for the core flow: strategies, the end-to-end Flow.submit pipeline,
   the incremental minimal-width search, and report formatting. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Strategy = C.Strategy
module Flow = C.Flow

let strategy name =
  match Strategy.of_name name with Ok s -> s | Error m -> Alcotest.fail m

(* a small instance shared by several tests *)
let small_route =
  let arch = F.Arch.create 5 in
  let rng = F.Rng.create 11 in
  let nl = F.Netlist.random ~rng ~arch ~num_nets:20 ~max_fanout:3 ~locality:2 in
  F.Global_router.route arch nl

let small_graph = F.Conflict_graph.build small_route
let small_ub = G.Greedy.upper_bound small_graph

(* --- strategy names --- *)

let test_strategy_name_roundtrip () =
  List.iter
    (fun s ->
      let s' =
        match Strategy.of_name (Strategy.name s) with
        | Ok s' -> s'
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check string) "name roundtrip" (Strategy.name s) (Strategy.name s'))
    (Strategy.best_single :: Strategy.paper_portfolio_3)

let test_strategy_parsing () =
  let s = strategy "muldirect/b1@minisat" in
  Alcotest.(check string) "full name" "muldirect/b1@minisat" (Strategy.name s);
  let s2 = strategy "log" in
  Alcotest.(check string) "defaults" "log/none@siege" (Strategy.name s2);
  (match Strategy.of_name "nope/s1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad encoding accepted");
  (match Strategy.of_name "log/zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad symmetry accepted");
  match Strategy.of_name "log@zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad solver accepted"

let test_paper_strategies () =
  Alcotest.(check string) "best single" "ITE-linear-2+muldirect/s1@siege"
    (Strategy.name Strategy.best_single);
  Alcotest.(check int) "portfolio sizes" 2 (List.length Strategy.paper_portfolio_2);
  Alcotest.(check int) "portfolio sizes" 3 (List.length Strategy.paper_portfolio_3)

(* --- flow --- *)

let test_flow_routable_at_upper_bound () =
  let run = Flow.submit Flow.default_request small_route ~width:small_ub in
  match run.Flow.outcome with
  | Flow.Routable detailed ->
      Alcotest.(check int) "width recorded" small_ub run.Flow.width;
      Alcotest.(check bool) "positive cnf" true (run.Flow.cnf_vars > 0);
      Alcotest.(check bool) "timings nonnegative" true
        (Flow.total run.Flow.timings >= 0.);
      Alcotest.(check int) "every subnet tracked"
        (F.Netlist.num_subnets small_route.F.Global_route.netlist)
        (Array.length detailed.F.Detailed_route.tracks)
  | Flow.Unroutable -> Alcotest.fail "DSATUR width must be routable"
  | Flow.Timeout | Flow.Memout -> Alcotest.fail "no budget was set"

let test_flow_unroutable_at_one () =
  if G.Graph.num_edges small_graph > 0 then begin
    let run =
      Flow.(submit (default_request |> with_proof true)) small_route ~width:1
    in
    match run.Flow.outcome with
    | Flow.Unroutable -> (
        match run.Flow.proof with
        | Some proof ->
            Alcotest.(check bool) "refutation trace" true
              (Sat.Proof.ends_with_empty proof)
        | None -> Alcotest.fail "proof requested but missing")
    | Flow.Routable _ | Flow.Timeout | Flow.Memout ->
        Alcotest.fail "width 1 must be unroutable"
  end

let test_flow_all_encodings_agree () =
  (* run every encoding at the same width; all must give the same verdict *)
  let width = max 1 (small_ub - 1) in
  let verdicts =
    List.map
      (fun e ->
        let run =
          Flow.(submit (default_request |> with_strategy (Strategy.make e)))
            small_route ~width
        in
        match run.Flow.outcome with
        | Flow.Routable _ -> true
        | Flow.Unroutable -> false
        | Flow.Timeout | Flow.Memout -> Alcotest.fail "unexpected timeout")
      E.Registry.all
  in
  match verdicts with
  | [] -> Alcotest.fail "no encodings"
  | v :: rest ->
      List.iteri
        (fun i v' ->
          Alcotest.(check bool) (Printf.sprintf "encoding %d agrees" (i + 1)) v v')
        rest

let test_flow_budget_timeout () =
  let spec = Option.get (F.Benchmarks.find "C1355") in
  let inst = F.Benchmarks.build spec in
  let request =
    Flow.(
      default_request
      |> with_strategy (strategy "muldirect")
      |> with_budget (Sat.Solver.conflict_budget 10))
  in
  let run =
    Flow.submit request inst.F.Benchmarks.route
      ~width:(inst.F.Benchmarks.max_congestion - 1)
  in
  match run.Flow.outcome with
  | Flow.Timeout | Flow.Memout -> ()
  | Flow.Routable _ | Flow.Unroutable ->
      Alcotest.fail "10 conflicts cannot decide C1355"

let test_flow_rejects_bad_width () =
  Alcotest.check_raises "width 0" (Invalid_argument "Flow.submit: width < 1")
    (fun () -> ignore (Flow.submit Flow.default_request small_route ~width:0))

(* --- minimal-width search --- *)

let search_small () =
  match C.Incremental_width.minimal_colors small_graph with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let test_min_width_minimal () =
  let r = search_small () in
  Min_width_check.verify ~route:small_route ~graph:small_graph r;
  (* small_graph's clique bound equals its DSATUR bound (4): both W and
     W - 1 are decided before any solver call *)
  Alcotest.(check int) "clique-tight: no solver query" 0
    r.C.Incremental_width.queries

let test_min_width_budget_error () =
  let spec = Option.get (F.Benchmarks.find "C1355") in
  let inst = F.Benchmarks.build spec in
  match
    C.Incremental_width.minimal_colors
      ~strategy:(strategy "muldirect")
      ~budget:(Sat.Solver.conflict_budget 5) inst.F.Benchmarks.graph
  with
  | Error _ -> ()
  | Ok r ->
      (* a 5-conflict budget can only succeed if every query was trivial;
         accept but sanity-check the result *)
      Alcotest.(check bool) "w_min positive" true (r.C.Incremental_width.w_min >= 1)

let test_min_width_agrees_with_cold_flow () =
  (* the ladder's w_min is routable under a fresh per-width CNF too *)
  let r = search_small () in
  let w = r.C.Incremental_width.w_min in
  Alcotest.(check bool) "colouring proper" true
    (G.Coloring.is_proper small_graph ~k:w r.C.Incremental_width.coloring);
  let run =
    Flow.(submit (default_request |> with_certify true)) small_route ~width:w
  in
  (match (run.Flow.outcome, run.Flow.certified) with
  | Flow.Routable _, Some true -> ()
  | _ -> Alcotest.fail "cold flow did not certify a routing at w_min");
  Min_width_check.verify ~route:small_route ~graph:small_graph r

let complete_graph n =
  G.Graph.of_edges n
    (List.concat
       (List.init n (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1)))))

let odd_cycle n = G.Graph.of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))

let minimal_colors_ok graph =
  match C.Incremental_width.minimal_colors graph with
  | Ok r -> r
  | Error m -> Alcotest.fail m

(* Mycielski's graph of C5 (Grötzsch): triangle-free, chromatic number 4,
   so the clique bound (2) leaves the ladder real work *)
let groetzsch =
  G.Graph.of_edges 11
    (List.init 5 (fun i -> (i, (i + 1) mod 5))
    @ List.concat
        (List.init 5 (fun i ->
             [ (5 + i, (i + 1) mod 5); (5 + i, (i + 4) mod 5); (5 + i, 10) ])))

let test_walk_down_on_warm_ladder () =
  (* the walk the server runs on its kept ladder: a second walk on the same
     (warm) solver answers the same w_min from what the ladder knows, and a
     fresh search agrees *)
  List.iter
    (fun (name, graph) ->
      let ladder = C.Incremental_width.prepare graph in
      let walk () =
        match C.Incremental_width.walk_down ladder with
        | Ok (w, coloring) ->
            Alcotest.(check bool) (name ^ ": colouring proper") true
              (G.Coloring.is_proper graph ~k:w coloring);
            w
        | Error m -> Alcotest.fail m
      in
      let first = walk () in
      (match G.Exact_coloring.chromatic_number graph with
      | G.Exact_coloring.Exact k ->
          Alcotest.(check int) (name ^ ": w_min is the chromatic number") k first
      | G.Exact_coloring.Bounds _ -> Alcotest.fail "exact colouring undecided");
      let after_first = C.Incremental_width.queries ladder in
      let second = walk () in
      Alcotest.(check int) (name ^ ": warm walk repeats its answer") first second;
      Alcotest.(check int) (name ^ ": second walk makes no new query")
        after_first
        (C.Incremental_width.queries ladder);
      let lower, upper = C.Incremental_width.bounds ladder in
      Alcotest.(check bool) (name ^ ": w_min within bounds") true
        (lower <= first && first <= upper);
      let r = minimal_colors_ok graph in
      Alcotest.(check int) (name ^ ": fresh search agrees")
        r.C.Incremental_width.w_min first;
      Alcotest.(check int) (name ^ ": fresh search makes the same queries")
        after_first r.C.Incremental_width.queries)
    [ ("small_graph", small_graph); ("C7", odd_cycle 7); ("Groetzsch", groetzsch) ]

let test_min_width_clique_tight () =
  (* K4: clique bound = DSATUR bound = 4, so the DSATUR colouring settles
     W and W - 1 is impossible structurally: no solver query at all *)
  let k4 = complete_graph 4 in
  let r = minimal_colors_ok k4 in
  Alcotest.(check int) "w_min" 4 r.C.Incremental_width.w_min;
  Alcotest.(check int) "lower bound" 4 r.C.Incremental_width.lower_bound;
  Alcotest.(check int) "no solver query" 0 r.C.Incremental_width.queries;
  Alcotest.(check bool) "proper" true
    (G.Coloring.is_proper k4 ~k:4 r.C.Incremental_width.coloring)

let test_min_width_odd_cycle_refuted_by_sat () =
  (* C5: clique bound 2, chromatic number 3 = the DSATUR bound, so W - 1 = 2
     must be refuted by a SAT query rather than by the clique bound, and
     that refutation is the only query *)
  let c5 = odd_cycle 5 in
  let r = minimal_colors_ok c5 in
  Alcotest.(check int) "w_min" 3 r.C.Incremental_width.w_min;
  Alcotest.(check int) "lower bound" 2 r.C.Incremental_width.lower_bound;
  Alcotest.(check int) "W - 1 was the one query" 1
    r.C.Incremental_width.queries;
  Alcotest.(check bool) "proper" true
    (G.Coloring.is_proper c5 ~k:3 r.C.Incremental_width.coloring)

let test_min_width_edgeless () =
  let g = G.Graph.create 6 in
  let r = minimal_colors_ok g in
  Alcotest.(check int) "one colour" 1 r.C.Incremental_width.w_min;
  Alcotest.(check int) "lower bound" 1 r.C.Incremental_width.lower_bound;
  Alcotest.(check bool) "proper" true
    (G.Coloring.is_proper g ~k:1 r.C.Incremental_width.coloring)

let test_query_rejects_width_zero () =
  let ladder = C.Incremental_width.prepare small_graph in
  Alcotest.check_raises "width 0"
    (Invalid_argument "Incremental_width.query: width < 1") (fun () ->
      ignore (C.Incremental_width.query ladder ~width:0))

let test_query_above_upper_bound () =
  (* widths above the ladder's DSATUR bound are answered at the bound *)
  let ladder = C.Incremental_width.prepare small_graph in
  let _, upper = C.Incremental_width.bounds ladder in
  match C.Incremental_width.query ladder ~width:(upper + 5) with
  | `Colorable coloring ->
      Alcotest.(check bool) "fits the upper bound" true
        (G.Coloring.is_proper small_graph ~k:upper coloring)
  | `Uncolorable | `Timeout | `Memout ->
      Alcotest.fail "the DSATUR bound is always colourable"

let test_incremental_other_encodings () =
  List.iter
    (fun sname ->
      match
        C.Incremental_width.minimal_colors ~strategy:(strategy sname) small_graph
      with
      | Ok inc ->
          Alcotest.(check bool) "proper" true
            (G.Coloring.is_proper small_graph ~k:inc.C.Incremental_width.w_min
               inc.C.Incremental_width.coloring)
      | Error m -> Alcotest.fail (sname ^ ": " ^ m))
    [ "muldirect"; "log/s1"; "ITE-log/b1"; "direct-3+muldirect/s1@minisat" ]

let mycielskian g =
  let n = G.Graph.num_vertices g in
  let m = G.Graph.create ((2 * n) + 1) in
  G.Graph.iter_edges
    (fun u v ->
      G.Graph.add_edge m u v;
      G.Graph.add_edge m (n + u) v;
      G.Graph.add_edge m u (n + v))
    g;
  for u = 0 to n - 1 do
    G.Graph.add_edge m (n + u) (2 * n)
  done;
  m

(* The narrowing ladder against the exact chromatic number, over random
   graphs and random query sequences. Seeded from [QCHECK_SEED] when set,
   else from a fixed default; every failure names the seed. *)
let ladder_seed () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None | Some "" -> 20080310
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> Alcotest.fail ("QCHECK_SEED is not an integer: " ^ s))

let work (s : Sat.Stats.t) =
  (s.decisions, s.propagations, s.conflicts, s.restarts, s.learnt_clauses)

let test_narrowing_ladder_property () =
  let seed = ladder_seed () in
  let rng = Random.State.make [| seed |] in
  let strategies =
    List.map strategy
      [ "muldirect/s1@siege"; "log"; "ITE-linear-2+muldirect/s1"; "direct@siege" ]
  in
  let total = ref 0 and solved = ref 0 and timeouts = ref 0 in
  for trial = 0 to 299 do
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Alcotest.fail (Printf.sprintf "QCHECK_SEED=%d trial %d: %s" seed trial m))
        fmt
    in
    let random_graph n =
      let density = 0.2 +. Random.State.float rng 0.7 in
      let g = G.Graph.create n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < density then G.Graph.add_edge g u v
        done
      done;
      g
    in
    let chromatic g =
      match G.Exact_coloring.chromatic_number g with
      | G.Exact_coloring.Exact k -> k
      | G.Exact_coloring.Bounds _ -> fail "exact colouring undecided"
    in
    (* plain random graphs mostly have clique bound = DSATUR bound =
       chromatic number, which leaves the solver nothing to do. So one
       trial in three draws 12-vertex graphs until DSATUR overshoots (about
       one in forty does), which puts the first solver query at a
       colourable width; one in three takes the Mycielskian of a small
       graph, which raises the chromatic number by one and keeps the clique
       number (at least 2) *)
    let rec dsatur_overshoots tries =
      let g = random_graph 12 in
      if tries = 0 || G.Greedy.upper_bound g > chromatic g then g
      else dsatur_overshoots (tries - 1)
    in
    let g =
      match trial mod 3 with
      | 0 -> dsatur_overshoots 1000
      | 1 -> mycielskian (random_graph (2 + Random.State.int rng 4))
      | _ -> random_graph (1 + Random.State.int rng 12)
    in
    let chi = chromatic g in
    let strat =
      List.nth strategies (Random.State.int rng (List.length strategies))
    in
    let ladder = C.Incremental_width.prepare ~strategy:strat g in
    let lower, upper = C.Incremental_width.bounds ladder in
    (* what the ladder should know: the fewest colours it has returned and
       the largest width it has refuted *)
    let best_k = ref upper and refuted = ref (lower - 1) in
    let steps = 2 + Random.State.int rng 6 in
    let timed = Random.State.int rng steps in
    let width = ref (1 + Random.State.int rng (upper + 2)) in
    for step = 0 to steps - 1 do
      (* repeats, single steps up and down, and jumps anywhere in
         [1, upper + 2] *)
      let open_band = !best_k - !refuted > 1 in
      let in_band () =
        (* a width the ladder cannot answer yet *)
        !refuted + 1 + Random.State.int rng (!best_k - !refuted - 1)
      in
      (width :=
         match Random.State.int rng 6 with
         | _ when step = timed && open_band -> in_band ()
         | 0 -> !width
         | 1 -> max 1 (!width - 1)
         | 2 -> !width + 1
         | (3 | 4) when open_band -> in_band ()
         | _ -> 1 + Random.State.int rng (upper + 2));
      let w = !width in
      let known = w >= !best_k || w <= !refuted in
      let queries0 = C.Incremental_width.queries ladder in
      let work0 = work (C.Incremental_width.stats ladder) in
      let budget =
        if step = timed then Sat.Solver.conflict_budget 1
        else Sat.Solver.no_budget
      in
      let answer = C.Incremental_width.query ~budget ladder ~width:w in
      let asked = C.Incremental_width.queries ladder - queries0 in
      incr total;
      if known then begin
        if asked <> 0 then fail "width %d was known, yet the solver ran" w;
        if work (C.Incremental_width.stats ladder) <> work0 then
          fail "width %d was known, yet solver counters moved" w
      end
      else begin
        if asked <> 1 then fail "width %d made %d solver queries" w asked;
        incr solved
      end;
      match answer with
      | `Colorable c ->
          if w < chi then fail "width %d coloured below chi = %d" w chi;
          if not (G.Coloring.is_proper g ~k:w c) then
            fail "width %d colouring not proper within the width" w;
          best_k := min !best_k (G.Coloring.num_colors c)
      | `Uncolorable ->
          if w >= chi then fail "width %d refuted but chi = %d" w chi;
          refuted := max !refuted w
      | `Timeout ->
          if step <> timed then fail "width %d timed out unbudgeted" w;
          incr timeouts
      | `Memout -> fail "width %d: memout" w
    done;
    match C.Incremental_width.walk_down ladder with
    | Ok (w_min, c) ->
        if w_min <> chi then fail "walk_down gave %d, chi = %d" w_min chi;
        if not (G.Coloring.is_proper g ~k:w_min c) then
          fail "walk_down colouring not proper"
    | Error m -> fail "walk_down: %s" m
  done;
  (* the property must not pass on memo answers alone *)
  Alcotest.(check bool)
    (Printf.sprintf "QCHECK_SEED=%d: %d of %d queries reached the solver" seed
       !solved !total)
    true
    (6 * !solved >= !total);
  Alcotest.(check bool)
    (Printf.sprintf "QCHECK_SEED=%d: %d queries timed out mid-sequence" seed
       !timeouts)
    true (!timeouts >= 10)

let test_solver_assumptions_basic () =
  (* (x0 | x1) with assumption -x0 forces x1; assuming both negative is
     UNSAT under assumptions while the formula stays satisfiable *)
  let cnf = Sat.Cnf.create () in
  Sat.Cnf.ensure_vars cnf 2;
  Sat.Cnf.add_clause cnf [ Sat.Lit.pos 0; Sat.Lit.pos 1 ];
  let solver = Sat.Solver.create cnf in
  (match Sat.Solver.solve_with ~assumptions:[ Sat.Lit.neg_of 0 ] solver with
  | Sat.Solver.Q_sat model ->
      Alcotest.(check bool) "x1 true" true model.(1);
      Alcotest.(check bool) "x0 false" false model.(0)
  | Sat.Solver.Q_unsat | Sat.Solver.Q_unknown | Sat.Solver.Q_memout ->
      Alcotest.fail "satisfiable");
  (match
     Sat.Solver.solve_with
       ~assumptions:[ Sat.Lit.neg_of 0; Sat.Lit.neg_of 1 ]
       solver
   with
  | Sat.Solver.Q_unsat -> ()
  | Sat.Solver.Q_sat _ | Sat.Solver.Q_unknown | Sat.Solver.Q_memout ->
      Alcotest.fail "unsat under assumptions");
  (* the solver is reusable after an assumption failure *)
  match Sat.Solver.solve_with solver with
  | Sat.Solver.Q_sat _ -> ()
  | Sat.Solver.Q_unsat | Sat.Solver.Q_unknown | Sat.Solver.Q_memout ->
      Alcotest.fail "still satisfiable"

(* --- report --- *)
(* portfolio tests live in test_engine.ml, next to the engine the
   portfolios now run on *)

let test_format_seconds () =
  Alcotest.(check string) "small" "0.10" (C.Report.format_seconds 0.1);
  Alcotest.(check string) "thousands" "1,018.10" (C.Report.format_seconds 1018.1);
  Alcotest.(check string) "millions" "1,054,417.00"
    (C.Report.format_seconds 1054417.)

let test_format_speedup () =
  Alcotest.(check string) "unit" "1.00x" (C.Report.format_speedup 1.);
  Alcotest.(check string) "small" "2.30x" (C.Report.format_speedup 2.3);
  Alcotest.(check string) "large" "1,139x" (C.Report.format_speedup 1139.2)

let test_render_table () =
  let t =
    C.Report.render_table ~header:[ "name"; "t" ]
      [ [ "a"; "1.0" ]; [ "long-name" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length t > 0 && String.sub t 0 4 = "name");
  (* short row was padded, so every line has the same width *)
  let lines = String.split_on_char '\n' t |> List.filter (fun l -> l <> "") in
  match lines with
  | first :: rest ->
      List.iter
        (fun l ->
          Alcotest.(check int) "aligned" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "empty table"

let () =
  Alcotest.run "core"
    [
      ( "strategy",
        [
          Alcotest.test_case "name roundtrip" `Quick test_strategy_name_roundtrip;
          Alcotest.test_case "parsing" `Quick test_strategy_parsing;
          Alcotest.test_case "paper strategies" `Quick test_paper_strategies;
        ] );
      ( "flow",
        [
          Alcotest.test_case "routable at upper bound" `Quick
            test_flow_routable_at_upper_bound;
          Alcotest.test_case "unroutable at width 1" `Quick test_flow_unroutable_at_one;
          Alcotest.test_case "all encodings agree" `Slow test_flow_all_encodings_agree;
          Alcotest.test_case "budget timeout" `Quick test_flow_budget_timeout;
          Alcotest.test_case "bad width rejected" `Quick test_flow_rejects_bad_width;
        ] );
      ( "min-width",
        [
          Alcotest.test_case "finds minimal width" `Quick test_min_width_minimal;
          Alcotest.test_case "budget error" `Quick test_min_width_budget_error;
          Alcotest.test_case "clique-tight graph" `Quick
            test_min_width_clique_tight;
          Alcotest.test_case "odd cycle refuted by SAT" `Quick
            test_min_width_odd_cycle_refuted_by_sat;
          Alcotest.test_case "edgeless graph" `Quick test_min_width_edgeless;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "assumptions basic" `Quick test_solver_assumptions_basic;
          Alcotest.test_case "agrees with cold flow" `Quick
            test_min_width_agrees_with_cold_flow;
          Alcotest.test_case "other encodings" `Quick test_incremental_other_encodings;
          Alcotest.test_case "walk_down on a warm ladder" `Quick
            test_walk_down_on_warm_ladder;
          Alcotest.test_case "query rejects width 0" `Quick
            test_query_rejects_width_zero;
          Alcotest.test_case "query above upper bound" `Quick
            test_query_above_upper_bound;
          Alcotest.test_case "narrowing ladder = exact chromatic number" `Quick
            test_narrowing_ladder_property;
        ] );
      ( "report",
        [
          Alcotest.test_case "seconds" `Quick test_format_seconds;
          Alcotest.test_case "speedup" `Quick test_format_speedup;
          Alcotest.test_case "table" `Quick test_render_table;
        ] );
    ]
