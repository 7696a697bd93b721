(* Quickstart: the whole pipeline on a small, hand-sized FPGA.

   Build a 5x5 island-style array, place a few nets, globally route them,
   then use the SAT flow to find the minimal channel width W — including the
   unroutability proof at W - 1 — and print the resulting detailed routing.

   Run with: dune exec examples/quickstart.exe *)

module F = Fpgasat_fpga
module G = Fpgasat_graph
module C = Fpgasat_core

let () =
  (* 1. architecture and netlist *)
  let arch = F.Arch.create 5 in
  let netlist =
    F.Netlist.make
      [
        { F.Netlist.net_id = 0; source = (0, 0); sinks = [ (4, 4); (4, 0) ] };
        { F.Netlist.net_id = 1; source = (0, 4); sinks = [ (4, 0) ] };
        { F.Netlist.net_id = 2; source = (2, 2); sinks = [ (0, 0); (4, 4) ] };
        { F.Netlist.net_id = 3; source = (1, 3); sinks = [ (3, 1) ] };
        { F.Netlist.net_id = 4; source = (3, 3); sinks = [ (1, 1) ] };
      ]
  in
  Format.printf "netlist: %a@." F.Netlist.pp netlist;

  (* 2. global routing (stands in for SEGA's global routes) *)
  let route = F.Global_router.route arch netlist in
  Format.printf "global routing: %a@." F.Global_route.pp route;

  (* 3. the conflict graph: 2-pin subnets that share a channel segment *)
  let graph = F.Conflict_graph.build route in
  Format.printf "conflict graph: %a@." G.Graph.pp graph;

  (* 4. minimal channel width via SAT, with an optimality proof *)
  match C.Incremental_width.minimal_colors graph with
  | Error msg -> prerr_endline ("search failed: " ^ msg)
  | Ok r ->
      let w = r.C.Incremental_width.w_min in
      Printf.printf "\nminimal channel width: W = %d\n" w;
      if w = r.C.Incremental_width.lower_bound then
        Printf.printf "W = %d impossible already by the clique bound\n" (w - 1)
      else Printf.printf "W = %d proven unroutable by the SAT solver\n" (w - 1);

      (* 5. the detailed routing, verified against the architecture *)
      let detailed =
        match
          F.Detailed_route.of_coloring route ~width:w r.C.Incremental_width.coloring
        with
        | Ok d -> d
        | Error _ -> failwith "minimal colouring is not a legal routing"
      in
      print_endline "\ntrack assignment per 2-pin subnet:";
      Array.iteri
        (fun id track ->
          let subnet = netlist.F.Netlist.subnets.(id) in
          let sx, sy = subnet.F.Netlist.from_cell
          and tx, ty = subnet.F.Netlist.to_cell in
          Printf.printf "  net %d: (%d,%d) -> (%d,%d)  track %d, %d segments\n"
            subnet.F.Netlist.parent sx sy tx ty track
            (List.length (F.Global_route.path route id)))
        detailed.F.Detailed_route.tracks;

      print_endline "\nbusiest channel segments (segment: track->subnet):";
      let occupancy = F.Detailed_route.channel_occupancy detailed in
      let busiest =
        List.sort
          (fun (_, a) (_, b) -> compare (List.length b) (List.length a))
          occupancy
      in
      List.iteri
        (fun i (seg, entries) ->
          if i < 5 then
            Format.printf "  %a: %s@." F.Arch.pp_segment seg
              (String.concat ", "
                 (List.map (fun (t, s) -> Printf.sprintf "%d->%d" t s) entries)))
        busiest
