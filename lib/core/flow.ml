module Sat = Fpgasat_sat
module Obs = Fpgasat_obs
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga

type timings = { to_graph : float; to_cnf : float; solving : float }

let total t = t.to_graph +. t.to_cnf +. t.solving

type outcome =
  | Routable of F.Detailed_route.t
  | Unroutable
  | Timeout
  | Memout

type run = {
  outcome : outcome;
  timings : timings;
  width : int;
  strategy : Strategy.t;
  cnf_vars : int;
  cnf_clauses : int;
  solver_stats : Sat.Stats.t;
  proof : Sat.Proof.t option;
  certified : bool option;
  telemetry : Obs.Telemetry.t option;
}

let outcome_name = function
  | Routable _ -> "routable"
  | Unroutable -> "unroutable"
  | Timeout -> "timeout"
  | Memout -> "memout"

let decisive = function
  | Routable _ | Unroutable -> true
  | Timeout | Memout -> false

exception Decode_mismatch of string

(* Wall clock, not [Sys.time]: the timing buckets feed run records that are
   compared across sweeps, and process CPU time is inflated ~jobs× by
   concurrent domains. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let solve_csp strategy budget proof csp =
  let encoded, to_cnf =
    timed (fun () ->
        E.Csp_encode.encode ?symmetry:strategy.Strategy.symmetry
          strategy.Strategy.encoding csp)
  in
  let (result, stats), solving =
    timed (fun () ->
        Sat.Solver.solve ~config:strategy.Strategy.solver ~budget ?proof
          encoded.E.Csp_encode.cnf)
  in
  let answer =
    match result with
    | Sat.Solver.Sat model ->
        let coloring = E.Csp_encode.decode encoded model in
        if not (E.Csp.solution_ok csp coloring) then
          raise (Decode_mismatch "decoded colouring is not proper")
        else `Colorable (coloring, model)
    | Sat.Solver.Unsat -> `Uncolorable
    | Sat.Solver.Unknown -> `Timeout
    | Sat.Solver.Memout -> `Memout
  in
  (answer, encoded, stats, to_cnf, solving)

type request = {
  strategy : Strategy.t;
  budget : Sat.Solver.budget;
  want_proof : bool;
  certify : bool;
  telemetry : bool;
  trace : Obs.Trace.t option;
}

let default_request =
  {
    strategy = Strategy.best_single;
    budget = Sat.Solver.no_budget;
    want_proof = false;
    certify = false;
    telemetry = false;
    trace = None;
  }

let with_strategy strategy r = { r with strategy }
let with_budget budget r = { r with budget }
let with_proof want_proof r = { r with want_proof }
let with_certify certify r = { r with certify }
let with_telemetry telemetry r = { r with telemetry }
let with_trace trace r = { r with trace = Some trace }

let submit { strategy; budget; want_proof; certify; telemetry; trace } route
    ~width =
  if width < 1 then invalid_arg "Flow.submit: width < 1";
  (* an attached trace takes over the budget's event hook: the run's
     lifecycle is exactly what the profile is for *)
  let budget =
    match trace with
    | None -> budget
    | Some tr -> Sat.Solver.with_event_hook (Obs.Trace.sink tr) budget
  in
  let (graph, csp), to_graph =
    timed (fun () ->
        let graph = F.Conflict_graph.build route in
        (graph, E.Csp.make graph ~k:width))
  in
  ignore graph;
  let proof =
    if want_proof || certify then Some (Sat.Proof.create ()) else None
  in
  Obs.Trace.record_opt trace Obs.Trace.Solve_begin width 0;
  let alloc0 = if telemetry then Gc.allocated_bytes () else 0. in
  let answer, encoded, stats, to_cnf, solving =
    solve_csp strategy budget proof csp
  in
  let telemetry =
    if telemetry then
      let words_allocated =
        int_of_float
          ((Gc.allocated_bytes () -. alloc0)
          /. float_of_int (Sys.word_size / 8))
      in
      Some (Obs.Telemetry.of_stats ~solving ~words_allocated stats)
    else None
  in
  let cnf = encoded.E.Csp_encode.cnf in
  let outcome, certified =
    match answer with
    | `Colorable (coloring, model) -> (
        match F.Detailed_route.of_coloring route ~width coloring with
        | Ok detailed ->
            let certified =
              if certify then
                Some
                  (Sat.Solver.check_model cnf model
                  && Result.is_ok (F.Detailed_route.verify route ~width coloring))
              else None
            in
            (Routable detailed, certified)
        | Error violation ->
            raise
              (Decode_mismatch
                 (Format.asprintf "detailed routing rejected: %a"
                    F.Detailed_route.pp_violation violation)))
    | `Uncolorable ->
        let certified =
          (* [certify] implies a recorded proof *)
          if certify then
            Option.map (fun p -> Result.is_ok (Sat.Drat_check.check cnf p)) proof
          else None
        in
        (Unroutable, certified)
    | `Timeout -> (Timeout, None)
    | `Memout -> (Memout, None)
  in
  Obs.Trace.record_opt trace Obs.Trace.Solve_end width
    (if decisive outcome then 1 else 0);
  {
    outcome;
    timings = { to_graph; to_cnf; solving };
    width;
    strategy;
    cnf_vars = Sat.Cnf.num_vars cnf;
    cnf_clauses = Sat.Cnf.num_clauses cnf;
    solver_stats = stats;
    proof;
    certified;
    telemetry;
  }
