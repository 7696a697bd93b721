let smallest_free used =
  let rec go c = if List.mem c used then go (c + 1) else c in
  go 0

let sequential ?order g =
  let n = Graph.num_vertices g in
  let order = match order with Some o -> o | None -> List.init n Fun.id in
  let coloring = Array.make n (-1) in
  let color v =
    let used =
      List.filter_map
        (fun w -> if coloring.(w) >= 0 then Some coloring.(w) else None)
        (Graph.neighbors g v)
    in
    coloring.(v) <- smallest_free used
  in
  List.iter color order;
  coloring

module Int_set = Set.Make (Int)

(* Each uncoloured vertex sits in [queue] under one int key ordered by
   highest saturation, then highest degree, then lowest index, so the next
   pick is the minimum. [seen] holds [(w, c)] when colour [c] is already
   present among uncoloured [w]'s neighbours (a colour is at most the
   maximum degree [d]); colouring a vertex touches each neighbour once, so
   the whole run is O((n + m) log n). *)
let dsatur g =
  let n = Graph.num_vertices g in
  let coloring = Array.make n (-1) in
  let d = ref 0 in
  for v = 0 to n - 1 do
    d := max !d (Graph.degree g v)
  done;
  let d = !d in
  let saturation = Array.make n 0 in
  let key v = ((((d - saturation.(v)) * (d + 1)) + (d - Graph.degree g v)) * n) + v in
  let seen = Hashtbl.create (2 * Graph.num_edges g + 1) in
  let has_color w c = Hashtbl.mem seen ((w * (d + 1)) + c) in
  let queue = ref Int_set.empty in
  for v = 0 to n - 1 do
    queue := Int_set.add (key v) !queue
  done;
  while not (Int_set.is_empty !queue) do
    let v = Int_set.min_elt !queue mod n in
    queue := Int_set.remove (key v) !queue;
    let c = ref 0 in
    while has_color v !c do
      incr c
    done;
    let c = !c in
    coloring.(v) <- c;
    List.iter
      (fun w ->
        if coloring.(w) < 0 && not (has_color w c) then begin
          Hashtbl.replace seen ((w * (d + 1)) + c) ();
          queue := Int_set.remove (key w) !queue;
          saturation.(w) <- saturation.(w) + 1;
          queue := Int_set.add (key w) !queue
        end)
      (Graph.neighbors g v)
  done;
  coloring

let upper_bound g = Coloring.num_colors (dsatur g)
