module Sat = Fpgasat_sat

type kind =
  | Solve_begin
  | Solve_end
  | Restart
  | Reduce_db
  | Memout_poll
  | Retry
  | Quarantine
  | Inprocess

let kind_name = function
  | Solve_begin -> "solve_begin"
  | Solve_end -> "solve_end"
  | Restart -> "restart"
  | Reduce_db -> "reduce_db"
  | Memout_poll -> "memout_poll"
  | Retry -> "retry"
  | Quarantine -> "quarantine"
  | Inprocess -> "inprocess"

let kind_to_int = function
  | Solve_begin -> 0
  | Solve_end -> 1
  | Restart -> 2
  | Reduce_db -> 3
  | Memout_poll -> 4
  | Retry -> 5
  | Quarantine -> 6
  | Inprocess -> 7

let kind_of_int = function
  | 0 -> Solve_begin
  | 1 -> Solve_end
  | 2 -> Restart
  | 3 -> Reduce_db
  | 4 -> Memout_poll
  | 5 -> Retry
  | 6 -> Quarantine
  | 7 -> Inprocess
  | n -> invalid_arg (Printf.sprintf "Trace.kind_of_int: %d" n)

(* Parallel arrays, not an event-record array: floats stay unboxed in the
   flat [ts] array and the int fields are immediates, so a [record] is four
   stores plus one fetch-and-add — no allocation on the hot path. The write
   index only ever grows; slot [i land (capacity-1)] holds the [i]-th event,
   so once the ring wraps the retained window is the most recent
   [capacity] events. *)
type t = {
  ts : float array;
  kinds : int array;
  a : int array;
  b : int array;
  capacity : int;
  next : int Atomic.t;
  epoch : float;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  (* power of two so the slot index is a mask, not a division *)
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  let capacity = !cap in
  {
    ts = Array.make capacity 0.;
    kinds = Array.make capacity 0;
    a = Array.make capacity 0;
    b = Array.make capacity 0;
    capacity;
    next = Atomic.make 0;
    epoch = Unix.gettimeofday ();
  }

let capacity t = t.capacity
let total t = Atomic.get t.next
let length t = min (total t) t.capacity
let epoch t = t.epoch

(* The slot claim is atomic; the four stores are not. A torn slot needs two
   domains [capacity] events apart inside the same few stores — acceptable
   for a diagnostic buffer, and the claim keeps indices unique. *)
let record t kind a b =
  let i = Atomic.fetch_and_add t.next 1 land (t.capacity - 1) in
  t.ts.(i) <- Unix.gettimeofday ();
  t.kinds.(i) <- kind_to_int kind;
  t.a.(i) <- a;
  t.b.(i) <- b

(* Positional (not optional-labelled) arguments: an optional argument would
   box its [Some] at every call and defeat the disabled-mode
   zero-allocation guarantee that test_obs pins down. *)
let record_opt t kind a b =
  match t with None -> () | Some t -> record t kind a b

type event = { ts : float; kind : kind; a : int; b : int }

let events t =
  let n = total t in
  let kept = min n t.capacity in
  let first = n - kept in
  List.init kept (fun j ->
      let i = (first + j) land (t.capacity - 1) in
      { ts = t.ts.(i); kind = kind_of_int t.kinds.(i); a = t.a.(i); b = t.b.(i) })

let sink t =
  let open Sat.Event in
  fun e ->
    match e with
    | Restart n -> record t Restart n 0
    | Reduce_db (before, deleted) -> record t Reduce_db before deleted
    | Memout_poll words -> record t Memout_poll words 0
    | Inprocess (strengthened, removed) -> record t Inprocess strengthened removed

let sink_opt = function None -> None | Some t -> Some (sink t)

(* ---------- serialisation ---------- *)

let schema_version = "fpgasat.trace/1"

let to_json t =
  let dropped = total t - length t in
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("epoch", Json.Float t.epoch);
      ("capacity", Json.Int t.capacity);
      ("dropped", Json.Int dropped);
      ( "events",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("ts", Json.Float e.ts);
                   ("kind", Json.String (kind_name e.kind));
                   ("a", Json.Int e.a);
                   ("b", Json.Int e.b);
                 ])
             (events t)) );
    ]

(* Chrome trace_event JSON (chrome://tracing, Perfetto, speedscope):
   instants ("ph":"i") for point events, with the paired
   Solve_begin/Solve_end rendered as one complete span ("ph":"X"). The
   [ts] unit is microseconds from the trace epoch. *)
let micros t ts = (ts -. t.epoch) *. 1e6

let chrome_args e =
  match e.kind with
  | Restart -> [ ("count", Json.Int e.a) ]
  | Reduce_db -> [ ("learnts", Json.Int e.a); ("deleted", Json.Int e.b) ]
  | Memout_poll -> [ ("heap_words", Json.Int e.a) ]
  | Retry -> [ ("attempt", Json.Int e.a) ]
  | Quarantine -> [ ("attempts", Json.Int e.a) ]
  | Inprocess -> [ ("strengthened", Json.Int e.a); ("literals", Json.Int e.b) ]
  | Solve_begin | Solve_end -> [ ("width", Json.Int e.a) ]

let to_chrome ?(pid = 1) ?(tid = 1) t =
  let base name ph ts extra =
    Json.Obj
      ([
         ("name", Json.String name);
         ("ph", Json.String ph);
         ("ts", Json.Float ts);
         ("pid", Json.Int pid);
         ("tid", Json.Int tid);
       ]
      @ extra)
  in
  let rec emit pending_begin acc = function
    | [] -> List.rev acc
    | e :: rest -> (
        match e.kind with
        | Solve_begin -> emit (Some e) acc rest
        | Solve_end ->
            let span =
              match pending_begin with
              | Some b ->
                  base "solve" "X" (micros t b.ts)
                    [
                      ("dur", Json.Float (micros t e.ts -. micros t b.ts));
                      ("args", Json.Obj (chrome_args b));
                    ]
              | None ->
                  base "solve_end" "i" (micros t e.ts)
                    [ ("s", Json.String "t"); ("args", Json.Obj (chrome_args e)) ]
            in
            emit None (span :: acc) rest
        | _ ->
            let ev =
              base (kind_name e.kind) "i" (micros t e.ts)
                [ ("s", Json.String "t"); ("args", Json.Obj (chrome_args e)) ]
            in
            emit pending_begin (ev :: acc) rest)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (emit None [] (events t)));
      ("displayTimeUnit", Json.String "ms");
    ]
