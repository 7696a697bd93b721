(* The cold query — what `fpgasat route --json` does after argument
   parsing, with certification on — in two forms:

   - [run]: the untraced path, exactly the public calls the CLI makes
     ([Benchmarks.build], [Flow.submit] with [with_certify true],
     [Run_record.of_run |> Run_record.to_line]);
   - [run_traced]: the same pipeline split into the public call of each
     layer, each wrapped in a {!Spans} span, with the work counters of
     every layer returned beside the timers. *)

module Sat = Fpgasat_sat
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine

(* The eight Table 2 benchmarks with their minimal channel width, as the
   `fpgasat min-width` command reports it. The benchmark instances are
   deterministic, so these are the expected answers every check below
   compares against. *)
let w_min =
  [
    ("alu2", 6);
    ("too_large", 7);
    ("alu4", 9);
    ("C880", 9);
    ("apex7", 9);
    ("C1355", 10);
    ("vda", 11);
    ("k2", 10);
  ]

(* The paper's winner and its baseline encoding. *)
let strategy_names =
  [ "ITE-linear-2+muldirect/s1@siege"; "muldirect/s1@siege" ]

let strategy_of_name name =
  match C.Strategy.of_name name with
  | Ok s -> s
  | Error m -> failwith (Printf.sprintf "strategy %S: %s" name m)

type query = {
  bench : string;
  spec : F.Benchmarks.spec;
  strategy : C.Strategy.t;
  strategy_name : string;
  width : int;
  expect_routable : bool;
}

let spec_of bench =
  match F.Benchmarks.find bench with
  | Some spec -> spec
  | None -> failwith ("unknown benchmark " ^ bench)

let queries ~offsets =
  List.concat_map
    (fun (bench, wm) ->
      let spec = spec_of bench in
      List.concat_map
        (fun strategy_name ->
          let strategy = strategy_of_name strategy_name in
          List.map
            (fun d ->
              {
                bench;
                spec;
                strategy;
                strategy_name;
                width = wm + d;
                expect_routable = d >= 0;
              })
            offsets)
        strategy_names)
    w_min

let key q = Printf.sprintf "%s|%s|%d" q.bench q.strategy_name q.width

(* A decisive answer with the expected verdict and an accepted
   certificate. *)
let run_ok q (run : C.Flow.run) =
  run.C.Flow.certified = Some true
  &&
  match run.C.Flow.outcome with
  | C.Flow.Routable _ -> q.expect_routable
  | C.Flow.Unroutable -> not q.expect_routable
  | C.Flow.Timeout | C.Flow.Memout -> false

let request q =
  let strategy = q.strategy in
  C.Flow.(default_request |> with_strategy strategy |> with_certify true)

let run q =
  let t0 = Unix.gettimeofday () in
  let inst = F.Benchmarks.build q.spec in
  let run = C.Flow.submit (request q) inst.F.Benchmarks.route ~width:q.width in
  let line =
    Eng.Run_record.of_run ~benchmark:q.bench
      ~wall_seconds:(Unix.gettimeofday () -. t0)
      run
    |> Eng.Run_record.to_line
  in
  (run, line)

(* Work counters of one traced query: exact for a fixed binary, except
   [record_bytes] and [query_words], which depend on the printed length of
   the measured times the run record carries. *)
type counters = {
  clauses : int;
  lits : int;
  encode_words : float;
  load_words : float;
  search_words : float;
  query_words : float;
  conflicts : int;
  propagations : int;
  decisions : int;
  learnt_literals : int;
  proof_steps : int;
  drat_propagations : int;
  rup_steps : int;
  rat_steps : int;
  record_bytes : int;
}

let counters_line c =
  Printf.sprintf
    "clauses=%d lits=%d conflicts=%d propagations=%d decisions=%d \
     learnt_literals=%d proof_steps=%d drat_propagations=%d rup_steps=%d \
     rat_steps=%d encode_words=%.0f load_words=%.0f search_words=%.0f"
    c.clauses c.lits c.conflicts c.propagations c.decisions c.learnt_literals
    c.proof_steps c.drat_propagations c.rup_steps c.rat_steps c.encode_words
    c.load_words c.search_words

(* The layered cold query. The span names are the layer names the
   per-layer metrics aggregate over; the run record's timing buckets are
   the same spans' durations. *)
let run_traced ~qid q =
  let span name f =
    let v = Spans.record name f in
    (v, Spans.last ())
  in
  let run, counters =
    Spans.with_query qid "query" @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let inst, _ = span "fpga.build" (fun () -> F.Benchmarks.build q.spec) in
    let route = inst.F.Benchmarks.route in
    let csp, graph_span =
      span "graph.csp" (fun () ->
          E.Csp.make (F.Conflict_graph.build route) ~k:q.width)
    in
    let proof = Sat.Proof.create () in
    let encoded, encode_span =
      span "encodings.encode" (fun () ->
          E.Csp_encode.encode ?symmetry:q.strategy.C.Strategy.symmetry
            q.strategy.C.Strategy.encoding csp)
    in
    let cnf = encoded.E.Csp_encode.cnf in
    let solver, load_span =
      span "sat.load" (fun () ->
          Sat.Solver.create ~config:q.strategy.C.Strategy.solver ~proof cnf)
    in
    let result, search_span =
      span "sat.search" (fun () -> Sat.Solver.solve_with solver)
    in
    let stats = Sat.Solver.solver_stats solver in
    let outcome, certified, drat =
      match result with
      | Sat.Solver.Q_sat model ->
          let (detailed, coloring), _ =
            span "core.decode" (fun () ->
                let coloring = E.Csp_encode.decode encoded model in
                if not (E.Csp.solution_ok csp coloring) then
                  raise (C.Flow.Decode_mismatch "colouring is not proper");
                match
                  F.Detailed_route.of_coloring route ~width:q.width coloring
                with
                | Ok d -> (d, coloring)
                | Error _ -> raise (C.Flow.Decode_mismatch "routing rejected"))
          in
          let ok, _ =
            span "certify.model_verify" (fun () ->
                Sat.Solver.check_model cnf model
                && Result.is_ok
                     (F.Detailed_route.verify route ~width:q.width coloring))
          in
          (C.Flow.Routable detailed, Some ok, None)
      | Sat.Solver.Q_unsat ->
          let checked, _ =
            span "certify.drat" (fun () -> Sat.Drat_check.check cnf proof)
          in
          (C.Flow.Unroutable, Some (Result.is_ok checked), Result.to_option checked)
      | Sat.Solver.Q_unknown -> (C.Flow.Timeout, None, None)
      | Sat.Solver.Q_memout -> (C.Flow.Memout, None, None)
    in
    let run =
      {
        C.Flow.outcome;
        timings =
          {
            C.Flow.to_graph = Spans.duration graph_span;
            to_cnf = Spans.duration encode_span;
            solving = Spans.duration load_span +. Spans.duration search_span;
          };
        width = q.width;
        strategy = q.strategy;
        cnf_vars = Sat.Cnf.num_vars cnf;
        cnf_clauses = Sat.Cnf.num_clauses cnf;
        solver_stats = stats;
        proof = Some proof;
        certified;
        telemetry = None;
      }
    in
    let line, _ =
      span "engine.record" (fun () ->
          Eng.Run_record.of_run ~benchmark:q.bench
            ~wall_seconds:(Unix.gettimeofday () -. t0)
            run
          |> Eng.Run_record.to_line)
    in
    let drat_stat f = Option.fold drat ~none:0 ~some:f in
    ( run,
      {
        clauses = Sat.Cnf.num_clauses cnf;
        lits = Sat.Cnf.num_lits cnf;
        encode_words = encode_span.Spans.words;
        load_words = load_span.Spans.words;
        search_words = search_span.Spans.words;
        query_words = 0.;
        conflicts = stats.Sat.Stats.conflicts;
        propagations = stats.Sat.Stats.propagations;
        decisions = stats.Sat.Stats.decisions;
        learnt_literals = stats.Sat.Stats.learnt_literals;
        proof_steps = Sat.Proof.num_steps proof;
        drat_propagations = drat_stat (fun d -> d.Sat.Drat_check.propagations);
        rup_steps = drat_stat (fun d -> d.Sat.Drat_check.rup_steps);
        rat_steps = drat_stat (fun d -> d.Sat.Drat_check.rat_steps);
        record_bytes = String.length line;
      } )
  in
  (run, { counters with query_words = (Spans.last ()).Spans.words })
