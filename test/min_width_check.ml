(* The independent checks every minimal-width test makes on an answer of
   [Incremental_width.minimal_colors]: the w_min colouring passes
   [Detailed_route.verify], and W - 1 is refuted by a cold [Flow.submit]
   with [certify = true], so the DRAT checker accepts the refutation. When
   the search reports W - 1 below the clique bound, that claim is
   re-derived from the graph as well. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module F = Fpgasat_fpga
module C = Fpgasat_core
module Flow = C.Flow

let verify ?(budget = Sat.Solver.time_budget 60.) ~route ~graph
    (r : C.Incremental_width.search_result) =
  let w = r.C.Incremental_width.w_min in
  (match F.Detailed_route.verify route ~width:w r.C.Incremental_width.coloring with
  | Ok () -> ()
  | Error v ->
      Alcotest.fail
        (Format.asprintf "w_min colouring is not a legal routing: %a"
           F.Detailed_route.pp_violation v));
  if w = r.C.Incremental_width.lower_bound then
    Alcotest.(check bool) "W - 1 below the clique bound" true
      (max 1 (G.Clique.lower_bound graph) >= w);
  if w > 1 then
    let run =
      Flow.(
        submit (default_request |> with_certify true |> with_budget budget))
        route ~width:(w - 1)
    in
    match (run.Flow.outcome, run.Flow.certified) with
    | Flow.Unroutable, Some true -> ()
    | Flow.Unroutable, _ -> Alcotest.fail "W - 1 refutation not certified"
    | Flow.Routable _, _ -> Alcotest.fail "W - 1 was routable"
    | (Flow.Timeout | Flow.Memout), _ -> Alcotest.fail "W - 1 undecided"
