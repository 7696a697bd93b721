module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings

type ladder = {
  strategy : Strategy.t;
  csp : E.Csp.t;
  encoded : E.Csp_encode.t;
  solver : Sat.Solver.solver;
  selectors : Sat.Lit.var array;
  lower : int;
  upper : int;
  cnf_hash : int64;
  mutable queries : int;
  (* what the session knows: the fewest-colour proper colouring found so
     far, and the largest width proved uncolourable *)
  mutable best : G.Coloring.t;
  mutable refuted : int;
}

let prepare ?(strategy = Strategy.best_single) graph =
  let lower = max 1 (G.Clique.lower_bound graph) in
  let greedy = G.Greedy.dsatur graph in
  let upper = max lower (G.Coloring.num_colors greedy) in
  let csp = E.Csp.make graph ~k:upper in
  let encoded =
    E.Csp_encode.encode ?symmetry:strategy.Strategy.symmetry
      strategy.Strategy.encoding csp
  in
  (* the selector-augmented formula starts as a flat arena copy of the
     encoded CNF (a blit, not a clause-by-clause rebuild) *)
  let cnf = Sat.Cnf.copy encoded.E.Csp_encode.cnf in
  (* one selector per colour: assuming it switches the colour off. Under
     definitional emission the encoder's (vertex, colour) definitions are
     already in the copied arena, so the selector clauses stay binary
     (~sel_c | ~d_v,c) instead of re-expanding the indexing pattern. *)
  let selectors = Array.init upper (fun _ -> Sat.Cnf.fresh_var cnf) in
  for v = 0 to G.Graph.num_vertices graph - 1 do
    for c = 0 to upper - 1 do
      Sat.Cnf.start_clause cnf;
      Sat.Cnf.push_lit cnf (Sat.Lit.neg_of selectors.(c));
      (match E.Csp_encode.definition encoded v c with
      | Some d -> Sat.Cnf.push_lit cnf (Sat.Lit.negate d)
      | None ->
          List.iter
            (fun l -> Sat.Cnf.push_lit cnf (Sat.Lit.negate l))
            (E.Csp_encode.pattern_lits encoded v c));
      Sat.Cnf.commit_clause cnf
    done
  done;
  let solver = Sat.Solver.create ~config:strategy.Strategy.solver cnf in
  {
    strategy;
    csp;
    encoded;
    solver;
    selectors;
    lower;
    upper;
    cnf_hash = Sat.Cnf.structural_hash encoded.E.Csp_encode.cnf;
    queries = 0;
    best = greedy;
    refuted = lower - 1;
  }

let bounds ladder = (ladder.lower, ladder.upper)
let queries ladder = ladder.queries
let stats ladder = Sat.Solver.solver_stats ladder.solver
let strategy ladder = ladder.strategy
let cnf_hash ladder = ladder.cnf_hash

let cnf_size ladder =
  let cnf = ladder.encoded.E.Csp_encode.cnf in
  (Sat.Cnf.num_vars cnf, Sat.Cnf.num_clauses cnf)

let best_k ladder = G.Coloring.num_colors ladder.best

let query ?(budget = Sat.Solver.no_budget) ladder ~width =
  if width < 1 then invalid_arg "Incremental_width.query: width < 1";
  let best_k = best_k ladder in
  if width >= best_k then `Colorable (Array.copy ladder.best)
  else if width <= ladder.refuted then `Uncolorable
  else begin
    (* the solver cannot improve on [best] above [best_k - 1]: switch those
       colours off for good (a colour already off is a no-op), so the query
       at [best_k - 1] needs no assumption and learnt clauses never carry
       their selectors *)
    for c = best_k - 1 to ladder.upper - 1 do
      Sat.Solver.assert_unit ladder.solver (Sat.Lit.pos ladder.selectors.(c))
    done;
    ladder.queries <- ladder.queries + 1;
    let assumptions =
      List.init (best_k - 1 - width) (fun i ->
          Sat.Lit.pos ladder.selectors.(width + i))
    in
    match Sat.Solver.solve_with ~budget ~assumptions ladder.solver with
    | Sat.Solver.Q_unsat ->
        ladder.refuted <- width;
        `Uncolorable
    | Sat.Solver.Q_unknown -> `Timeout
    | Sat.Solver.Q_memout -> `Memout
    | Sat.Solver.Q_sat model ->
        let coloring = E.Csp_encode.decode ladder.encoded model in
        if
          (not (E.Csp.solution_ok ladder.csp coloring))
          || G.Coloring.num_colors coloring > width
        then
          raise
            (Flow.Decode_mismatch
               "incremental query: decoded colouring is not proper within the \
                width")
        else begin
          ladder.best <- coloring;
          `Colorable (Array.copy coloring)
        end
  end

type search_result = {
  w_min : int;
  coloring : G.Coloring.t;
  lower_bound : int;
  queries : int;
  stats : Sat.Stats.t;
}

let walk_down ?(budget = Sat.Solver.no_budget) ladder =
  (* each query at [best_k - 1] either refutes it or shrinks [best] *)
  let rec walk () =
    let w = best_k ladder - 1 in
    if w <= ladder.refuted then Ok (w + 1, Array.copy ladder.best)
    else
      match query ~budget ladder ~width:w with
      | `Uncolorable | `Colorable _ -> walk ()
      | `Timeout -> Error "budget exhausted during width search"
      | `Memout -> Error "memory budget exhausted during width search"
  in
  walk ()

let minimal_colors ?strategy ?budget graph =
  match prepare ?strategy graph with
  | exception Invalid_argument m -> Error m
  | ladder -> (
      match walk_down ?budget ladder with
      | exception Flow.Decode_mismatch _ ->
          Error "decoded colouring failed verification"
      | Error _ as err -> err
      | Ok (w_min, coloring) ->
          Ok
            {
              w_min;
              coloring;
              lower_bound = ladder.lower;
              queries = ladder.queries;
              stats = stats ladder;
            })
