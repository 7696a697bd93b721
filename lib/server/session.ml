module Sat = Fpgasat_sat
module F = Fpgasat_fpga
module C = Fpgasat_core
module Obs = Fpgasat_obs

type t = {
  benchmark : string;
  strategy : C.Strategy.t;
  route : F.Global_route.t;
  ladder : C.Incremental_width.ladder;
  cnf_vars : int;
  cnf_clauses : int;
  cnf_hash : int64;
  prepare_seconds : float;
  mutex : Mutex.t;
  mutable served : int;
}

let create ~benchmark strategy (inst : F.Benchmarks.instance) =
  let t0 = Unix.gettimeofday () in
  let ladder = C.Incremental_width.prepare ~strategy inst.F.Benchmarks.graph in
  let cnf_vars, cnf_clauses = C.Incremental_width.cnf_size ladder in
  {
    benchmark;
    strategy;
    route = inst.F.Benchmarks.route;
    ladder;
    cnf_vars;
    cnf_clauses;
    cnf_hash = C.Incremental_width.cnf_hash ladder;
    prepare_seconds = Unix.gettimeofday () -. t0;
    mutex = Mutex.create ();
    served = 0;
  }

let benchmark t = t.benchmark
let strategy t = t.strategy
let route t = t.route
let bounds t = C.Incremental_width.bounds t.ladder
let served t = t.served
let prepare_seconds t = t.prepare_seconds

let cache_key t ~width ~budget_signature ~certify =
  Printf.sprintf "%Lx|%s|%d|%s|%b" t.cnf_hash
    (C.Strategy.name t.strategy)
    width budget_signature certify

(* Cumulative solver statistics, copied so a later query cannot mutate the
   snapshot under us. *)
let snapshot (s : Sat.Stats.t) = { s with Sat.Stats.lbd_hist = Array.copy s.lbd_hist }

(* Per-query attribution: counters are deltas, watermark fields keep the
   cumulative value (they are maxima, not sums). *)
let diff (before : Sat.Stats.t) (after : Sat.Stats.t) =
  let d = Sat.Stats.create () in
  d.Sat.Stats.decisions <- after.decisions - before.decisions;
  d.Sat.Stats.propagations <- after.propagations - before.propagations;
  d.Sat.Stats.conflicts <- after.conflicts - before.conflicts;
  d.Sat.Stats.restarts <- after.restarts - before.restarts;
  d.Sat.Stats.learnt_clauses <- after.learnt_clauses - before.learnt_clauses;
  d.Sat.Stats.learnt_literals <- after.learnt_literals - before.learnt_literals;
  d.Sat.Stats.deleted_clauses <- after.deleted_clauses - before.deleted_clauses;
  d.Sat.Stats.inprocess_rounds <- after.inprocess_rounds - before.inprocess_rounds;
  d.Sat.Stats.inprocess_strengthened <-
    after.inprocess_strengthened - before.inprocess_strengthened;
  d.Sat.Stats.inprocess_literals <-
    after.inprocess_literals - before.inprocess_literals;
  d.Sat.Stats.max_decision_level <- after.max_decision_level;
  Array.iteri
    (fun i b -> d.Sat.Stats.lbd_hist.(i) <- after.lbd_hist.(i) - b)
    before.Sat.Stats.lbd_hist;
  d.Sat.Stats.peak_heap_words <- after.peak_heap_words;
  d

let make_run t ~width ~solving ~stats ~telemetry_words outcome ~telemetry =
  let telemetry =
    if telemetry then
      Some (Obs.Telemetry.of_stats ~solving ~words_allocated:telemetry_words stats)
    else None
  in
  {
    C.Flow.outcome;
    (* graph and CNF translation are amortised over the session: this
       query paid neither *)
    timings = { C.Flow.to_graph = 0.; to_cnf = 0.; solving };
    width;
    strategy = t.strategy;
    cnf_vars = t.cnf_vars;
    cnf_clauses = t.cnf_clauses;
    solver_stats = stats;
    proof = None;
    certified = None;
    telemetry;
  }

let route_warm ?(budget = Sat.Solver.no_budget) ?(telemetry = false) t ~width =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      t.served <- t.served + 1;
      (* widths the ladder has already decided come back without a solver
         call, and with an all-zero statistics delta *)
      let before = snapshot (C.Incremental_width.stats t.ladder) in
      let alloc0 = Gc.allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      let answer = C.Incremental_width.query ~budget t.ladder ~width in
      let solving = Unix.gettimeofday () -. t0 in
      let words =
        int_of_float
          ((Gc.allocated_bytes () -. alloc0) /. float_of_int (Sys.word_size / 8))
      in
      let stats = diff before (snapshot (C.Incremental_width.stats t.ladder)) in
      let outcome =
        match answer with
        | `Colorable coloring -> (
            match F.Detailed_route.of_coloring t.route ~width coloring with
            | Ok detailed -> C.Flow.Routable detailed
            | Error violation ->
                raise
                  (C.Flow.Decode_mismatch
                     (Format.asprintf "detailed routing rejected: %a"
                        F.Detailed_route.pp_violation violation)))
        | `Uncolorable -> C.Flow.Unroutable
        | `Timeout -> C.Flow.Timeout
        | `Memout -> C.Flow.Memout
      in
      make_run t ~width ~solving ~stats ~telemetry_words:words outcome
        ~telemetry)

let min_width ?budget t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      t.served <- t.served + 1;
      C.Incremental_width.walk_down ?budget t.ladder |> Result.map fst)
