(* Encoding explorer: how the 15 encodings trade Boolean variables against
   clauses, and what that does to solver behaviour.

   For a channel width sweep this prints, per encoding: variables per CSP
   variable, CNF size on the apex7 conflict graph, and the solve time of the
   unroutable configuration — a compact view of why the paper's hierarchical
   encodings win on hard UNSAT instances.

   Run with: dune exec examples/encoding_explorer.exe *)

module Sat = Fpgasat_sat
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core

let () =
  print_endline "Variables per CSP variable, by domain size k:";
  Printf.printf "  %-26s" "encoding";
  List.iter (fun k -> Printf.printf "  k=%-3d" k) [ 3; 5; 8; 13; 21 ];
  print_newline ();
  List.iter
    (fun e ->
      Printf.printf "  %-26s" (E.Encoding.name e);
      List.iter
        (fun k ->
          Printf.printf "  %-5d" (E.Encoding.layout e k).E.Layout.num_slots)
        [ 3; 5; 8; 13; 21 ];
      print_newline ())
    E.Registry.all;

  let spec = Option.get (F.Benchmarks.find "apex7") in
  let inst = F.Benchmarks.build spec in
  let w =
    match
      C.Incremental_width.minimal_colors
        ~budget:(Sat.Solver.time_budget 120.) inst.F.Benchmarks.graph
    with
    | Ok r -> r.C.Incremental_width.w_min
    | Error m -> failwith m
  in
  Printf.printf
    "\nCNF sizes and UNSAT solve times on apex7 at W = %d (unroutable), s1:\n"
    (w - 1);
  Printf.printf "  %-26s %10s %10s %10s %12s\n" "encoding" "vars" "clauses"
    "literals" "solve [s]";
  List.iter
    (fun e ->
      let strat = C.Strategy.make ~symmetry:E.Symmetry.S1 e in
      let run =
        C.Flow.(
          submit
            (default_request |> with_strategy strat
            |> with_budget (Sat.Solver.time_budget 60.)))
          inst.F.Benchmarks.route ~width:(w - 1)
      in
      let outcome =
        match run.C.Flow.outcome with
        | C.Flow.Unroutable -> Printf.sprintf "%12.3f" run.C.Flow.timings.C.Flow.solving
        | C.Flow.Routable _ -> "    ROUTABLE?"
        | C.Flow.Timeout -> "         T/O"
        | C.Flow.Memout -> "         M/O"
      in
      Printf.printf "  %-26s %10d %10d %10s %s\n" (E.Encoding.name e)
        run.C.Flow.cnf_vars run.C.Flow.cnf_clauses "-" outcome)
    E.Registry.all;
  print_endline
    "\nNote how the ITE-tree and hierarchical encodings need neither\n\
     at-most-one nor at-least-one clauses (their structure guarantees\n\
     exactly one selected value), giving small formulas over few variables —\n\
     the effect the paper measures in Table 2."
