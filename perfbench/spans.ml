(* In-memory span recorder for the traced run.

   A span is one call into a layer: its name, wall-clock start and end, the
   span that caused it, the query it belongs to, and the words the call
   allocated. Spans are appended to an in-memory buffer and written out
   only when the benchmark ends, so recording costs two clock reads, two
   minor collections (for exact allocation counts) and one record per
   call, and that cost is itself measured per span. The untraced runs do
   not record. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a query's root span. *)
  query : int;
  name : string;
  start : float;
  stop : float;
  cost : float;
      (** Seconds this span's own recording took, outside [start, stop]:
          the tracing overhead it adds to its parent. *)
  words : float;
}

let buffer : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let query = ref 0

(* Words allocated so far. The minor collection first makes the count
   exact: without it, words promoted during a span that were allocated
   before it are subtracted from the span, so the same call reads
   differently depending on the heap it started from. *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record name f =
  let enter = Unix.gettimeofday () in
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let w0 = words () in
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    let w = words () -. w0 in
    current := parent;
    let cost = start -. enter +. (Unix.gettimeofday () -. stop) in
    buffer :=
      { id; parent; query = !query; name; start; stop; cost; words = w }
      :: !buffer
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Opens the root span of query [q]. *)
let with_query q name f =
  query := q;
  record name f

(* The most recently finished span. *)
let last () = List.hd !buffer

let all () = List.rev !buffer
let reset () = buffer := []
let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the time its direct
   children cover, their recording cost included (children of one parent
   never overlap, as calls are sequential). *)
let self_times spans =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value (Hashtbl.find_opt covered s.parent) ~default:0. in
        Hashtbl.replace covered s.parent (c +. duration s +. s.cost))
    spans;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt covered s.id) ~default:0. in
      (s, duration s -. c))
    spans

let to_json s =
  Fpgasat_obs.Json.(
    Obj
      [
        ("id", Int s.id);
        ("parent", Int s.parent);
        ("query", Int s.query);
        ("name", String s.name);
        ("start", Float s.start);
        ("end", Float s.stop);
        ("cost", Float s.cost);
        ("words", Float s.words);
      ])

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Fpgasat_obs.Json.to_string (to_json s));
      output_char oc '\n')
    spans;
  close_out oc
