(* The served workload: a seeded request stream sent closed-loop to an
   `fpgasat serve` child over two client connections, and an in-process
   replay of the same stream through the server's public stage functions
   for the traced run. *)

module J = Fpgasat_obs.Json
module Sat = Fpgasat_sat
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module P = Fpgasat_server.Protocol
module Client = Fpgasat_server.Client
module Session = Fpgasat_server.Session
module Answer_cache = Fpgasat_server.Answer_cache

let connections = 2
let workers = 2

(* ---------- the request stream ---------- *)

type kind = Route | Certify | Min_width

type req = {
  rid : string;
  kind : kind;
  bench : string;
  strategy_name : string;
  width : int;  (** 0 for [Min_width]. *)
  w_min : int;
  conn : int;
}

let kind_name = function
  | Route -> "route"
  | Certify -> "certify"
  | Min_width -> "min_width"

let describe r =
  Printf.sprintf "%s %s %s %s %d" r.rid (kind_name r.kind) r.bench
    r.strategy_name r.width

let line r =
  let op = match r.kind with Min_width -> P.Min_width | _ -> P.Route in
  let width = match r.kind with Min_width -> None | _ -> Some r.width in
  P.request ~id:r.rid ~strategy:r.strategy_name ~benchmark:r.bench ?width
    ~certify:(r.kind = Certify) op
  |> P.request_to_json |> J.to_string

(* One session (benchmark × strategy) per pair. Every request on a session
   goes down the same connection, so the order in which a session sees its
   queries is the stream order, whatever the two connections' timing: the
   first request for each answer-cache key is always the one that fills it,
   the warm ladder learns in the same order on every run, and the server's
   served-by counts are identical across runs and seeds.

   Per session the stream holds, in this fixed order, the four uncertified
   widths w_min+2 … w_min-1 (each a warm miss the first time), one
   certified width (cold) and a min_width request (warm). Totals per
   stream of 400: 64 + 276 repeats = 340 uncertified routes (85%),
   16 + 24 repeats = 40 certified routes (10%), 16 + 4 repeats = 20
   min_width (5%). Route repeats are answered from the cache; a min_width
   repeat walks the warm ladder again.

   The requests that make the server work (cache misses and min_width)
   form a fixed skeleton. Each connection first opens its eight sessions
   (their first requests, in a fixed order), then interleaves the rest of
   its sessions' requests in one fixed pseudo-random order. The seed
   places the 300 cache hits into it, each at a random point after both
   its key's first request and the session-opening prefix. So every seed
   overlaps the same solver work on the two workers in the same way, and
   no seeded hit lands behind a session creation, which holds the
   server's session-map lock: the latency tail measures the server rather
   than the draw. *)
let route_repeats = 276
let certify_repeats = 24
let min_width_repeats = 4

let scripts () =
  let sessions =
    List.concat_map
      (fun (bi, (bench, wm)) ->
        List.mapi (fun si s -> (bi, si, bench, wm, s)) Cold.strategy_names)
      (List.mapi (fun i b -> (i, b)) Cold.w_min)
  in
  List.mapi
    (fun idx (bi, si, bench, wm, strategy_name) ->
      let conn = (bi + si) mod connections in
      let mk kind width =
        { rid = ""; kind; bench; strategy_name; width; w_min = wm; conn }
      in
      let routes = List.map (fun d -> mk Route (wm + d)) [ 2; 1; 0; -1 ] in
      (* the certified width cycles over the four widths by session *)
      let certify = mk Certify (wm - 1 + (idx mod 4)) in
      let min_widths =
        List.init
          (if idx mod (List.length sessions / min_width_repeats) = 0 then 2
           else 1)
          (fun _ -> mk Min_width 0)
      in
      routes @ (certify :: min_widths))
    sessions

(* Random merge of scripts, preserving each script's order. *)
let merge rng scripts =
  let queues = Array.of_list (List.map ref scripts) in
  let remaining () =
    Array.fold_left (fun acc q -> acc + List.length !q) 0 queues
  in
  let out = ref [] in
  while remaining () > 0 do
    let pick = ref (Random.State.int rng (remaining ())) in
    let q =
      List.find
        (fun q ->
          let len = List.length !q in
          if !pick < len then true
          else begin
            pick := !pick - len;
            false
          end)
        (Array.to_list queues)
    in
    match !q with
    | r :: rest ->
        q := rest;
        out := r :: !out
    | [] -> assert false
  done;
  List.rev !out

let same_key a b =
  a.kind = b.kind && a.bench = b.bench
  && a.strategy_name = b.strategy_name
  && a.width = b.width

(* Inserts a repeat of [target] at a uniformly random position after its
   first occurrence in [items], and after position [min_after]. *)
let insert_repeat rng ~min_after items target =
  let rec first i = function
    | [] -> invalid_arg "insert_repeat"
    | x :: rest -> if same_key x target then i else first (i + 1) rest
  in
  let after = max min_after (first 0 items) in
  let pos = after + 1 + Random.State.int rng (List.length items - after) in
  List.filteri (fun i _ -> i < pos) items
  @ (target :: List.filteri (fun i _ -> i >= pos) items)

(* The stream for one round: per connection, the list of requests in send
   order. Which keys are repeated, and how often, follows a fixed rule, so
   the multiset of requests is the same for every seed. *)
let stream rng =
  let scripts = Array.of_list (scripts ()) in
  let n = Array.length scripts in
  let skeleton_rng = Random.State.make [| 0 |] in
  let opening = Array.make connections 0 in
  let streams =
    Array.init connections (fun conn ->
        let own =
          List.filter (fun s -> (List.hd s).conn = conn) (Array.to_list scripts)
        in
        opening.(conn) <- List.length own;
        List.map List.hd own @ merge skeleton_rng (List.map List.tl own))
  in
  let repeat s item =
    let target = List.nth scripts.(s) item in
    let c = target.conn in
    streams.(c) <-
      insert_repeat rng ~min_after:(opening.(c) - 1) streams.(c) target
  in
  (* items 0-3 of a script are the routes, 4 the certified route *)
  for i = 0 to route_repeats - 1 do
    repeat (i mod n) (i / n mod 4)
  done;
  for i = 0 to certify_repeats - 1 do
    repeat (i mod n) 4
  done;
  let counter = ref 0 in
  Array.map
    (List.map (fun r ->
         incr counter;
         { r with rid = Printf.sprintf "r%d" !counter }))
    streams

(* Served-by counts every round must produce: the first request of each
   key misses, repeats hit; min_width is always warm. *)
let expected_served =
  let sessions = List.length Cold.w_min * List.length Cold.strategy_names in
  ( route_repeats + certify_repeats,
    (4 * sessions) + sessions + min_width_repeats,
    sessions )

let served_counts stats =
  let count k = match J.find stats k with Some (J.Int n) -> n | _ -> -1 in
  (count "cache_hits", count "warm", count "cold")

(* ---------- checks ---------- *)

let verdict_ok r (resp : P.response) =
  resp.P.status = P.Done
  &&
  match r.kind with
  | Min_width -> resp.P.min_width = Some r.w_min
  | Route | Certify -> (
      match resp.P.run with
      | None -> false
      | Some run ->
          let outcome = J.find run "outcome" in
          let expected =
            if r.width >= r.w_min then "routable" else "unroutable"
          in
          outcome = Some (J.String expected)
          && (r.kind = Route || J.find run "certified" = Some (J.Bool true)))

(* ---------- the server child ---------- *)

type server = { pid : int; socket : string }

let read_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub l 6 (String.length l - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else go ()
      in
      let v = go () in
      close_in ic;
      v

(* Spawns `fpgasat serve` and returns once it answers a ping, with the
   seconds from spawn to that reply. *)
let spawn ~fpgasat ~dir ~tag =
  let socket = Filename.concat dir (Printf.sprintf "s%d-%s.sock" (Unix.getpid ()) tag) in
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile
      (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process fpgasat
      [|
        fpgasat; "serve"; "--socket"; socket; "--workers"; string_of_int workers;
      |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let server = { pid; socket } in
  let deadline = t0 +. 30. in
  let rec wait () =
    if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith "fpgasat serve did not answer a ping within 30 s"
    end;
    match Client.connect ~timeout:30. socket with
    | Error _ ->
        Unix.sleepf 0.0005;
        wait ()
    | Ok c -> (
        let reply = Client.call c (P.request P.Ping) in
        Client.close c;
        match reply with
        | Ok { P.status = P.Done; _ } -> Unix.gettimeofday () -. t0
        | _ ->
            Unix.sleepf 0.0005;
            wait ())
  in
  let setup = wait () in
  (server, setup)

let stats server =
  match Client.one_shot ~timeout:30. ~socket:server.socket (P.request P.Stats) with
  | Ok { P.payload = Some p; _ } -> p
  | _ -> failwith "stats request failed"

(* Graceful shutdown through the protocol, then reap the child; SIGKILL
   after 30 s so the benchmark never leaves a process behind. *)
let stop server =
  ignore
    (Client.one_shot ~timeout:30. ~socket:server.socket (P.request P.Shutdown));
  let deadline = Unix.gettimeofday () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] server.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] server.pid)
        end
        else begin
          Unix.sleepf 0.002;
          reap ()
        end
    | _ -> ()
  in
  reap ();
  try Sys.remove server.socket with Sys_error _ -> ()

(* ---------- closed-loop clients ---------- *)

(* [conflicts] is the solver's conflict count the response reports, -1
   when it reports none (cache hits carry the filling run's record). *)
type sample = {
  r : req;
  start : float;
  latency : float;
  ok : bool;
  conflicts : int;
}

let conflicts_of (resp : P.response) =
  match Option.bind resp.P.run (fun run -> J.find run "solver") with
  | Some solver -> (
      match J.find solver "conflicts" with Some (J.Int n) -> n | _ -> -1)
  | None -> -1

let drive server streams =
  let results = Array.make connections [] in
  let client conn =
    match Client.connect ~timeout:170. server.socket with
    | Error _ ->
        results.(conn) <-
          List.map
            (fun r ->
              { r; start = 0.; latency = 0.; ok = false; conflicts = -1 })
            streams.(conn)
    | Ok c ->
        let out =
          List.map
            (fun r ->
              let l = line r in
              let t0 = Unix.gettimeofday () in
              let reply = Client.call_line c l in
              let resp = Result.bind reply P.parse_response in
              let latency = Unix.gettimeofday () -. t0 in
              let ok, conflicts =
                match resp with
                | Ok resp -> (verdict_ok r resp, conflicts_of resp)
                | Error _ -> (false, -1)
              in
              { r; start = t0; latency; ok; conflicts })
            streams.(conn)
        in
        Client.close c;
        results.(conn) <- out
  in
  let t0 = Unix.gettimeofday () in
  let threads = Array.init connections (fun conn -> Thread.create client conn) in
  Array.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  (List.concat (Array.to_list results), wall)

(* ---------- in-process replay ---------- *)

(* The server's request path, stage by stage, through the same public
   functions: parse, session lookup (create on first use), cache lookup,
   warm / cold / min-width execution, record, cache fill, response. Each
   stage is a span, so the per-layer figures come out of the same span
   aggregation as the cold workloads. Cold (certified) requests run
   through {!Cold.run_traced}'s layering minus the instance build, which a
   server session already holds. *)
type replay = {
  stage_s : (string, float) Hashtbl.t;  (** request id -> replayed time *)
  warm_conflicts : int;
  solver : Sat.Stats.t;
      (** conflicts, propagations, decisions and learnt literals summed
          over every solver call of the replay, warm and cold *)
  wrong : int;  (** replayed answers that failed {!verdict_ok} *)
  hits : int;
  lookups : int;
  counters : (string * string * string) list;
      (** per request, in stream order: its id, its identity (kind,
          benchmark, strategy, width and occurrence) and the work counters
          of the call that answered it — exact for a fixed binary, as each
          session sees its requests in a fixed order *)
}

let replay streams =
  let cache : J.t Answer_cache.t = Answer_cache.create ~capacity:256 () in
  let sessions = Hashtbl.create 16 in
  let stage_s = Hashtbl.create 256 in
  let warm_conflicts = ref 0 in
  let solver = Sat.Stats.create () in
  let add_stats (s : Sat.Stats.t) =
    solver.Sat.Stats.conflicts <- solver.Sat.Stats.conflicts + s.conflicts;
    solver.Sat.Stats.propagations <-
      solver.Sat.Stats.propagations + s.propagations;
    solver.Sat.Stats.decisions <- solver.Sat.Stats.decisions + s.decisions;
    solver.Sat.Stats.learnt_literals <-
      solver.Sat.Stats.learnt_literals + s.learnt_literals
  in
  let wrong = ref 0 in
  let counters = ref [] in
  let seen = Hashtbl.create 256 in
  let reqs =
    List.concat (Array.to_list streams)
    |> List.sort (fun a b ->
           compare
             (int_of_string (String.sub a.rid 1 (String.length a.rid - 1)))
             (int_of_string (String.sub b.rid 1 (String.length b.rid - 1))))
  in
  List.iteri
    (fun qid r ->
      let l = line r in
      let ident =
        Printf.sprintf "%s|%s|%s|%d" (kind_name r.kind) r.bench r.strategy_name
          r.width
      in
      let occurrence = Option.value (Hashtbl.find_opt seen ident) ~default:0 in
      Hashtbl.replace seen ident (occurrence + 1);
      let work = ref "served=cache" in
      let t0 = Unix.gettimeofday () in
      Spans.with_query qid "request" (fun () ->
          let req =
            match Spans.record "server.parse" (fun () -> P.parse_request l) with
            | Ok req -> req
            | Error m -> failwith m
          in
          let strategy = Cold.strategy_of_name r.strategy_name in
          let session =
            let skey = r.bench ^ "|" ^ r.strategy_name in
            match Hashtbl.find_opt sessions skey with
            | Some s -> s
            | None ->
                let inst =
                  Spans.record "fpga.build" (fun () ->
                      F.Benchmarks.build (Cold.spec_of r.bench))
                in
                let s =
                  Spans.record "server.session_create" (fun () ->
                      Session.create ~benchmark:r.bench strategy inst)
                in
                Hashtbl.replace sessions skey s;
                s
          in
          let response =
            match r.kind with
            | Min_width -> (
                match
                  Spans.record "server.min_width" (fun () ->
                      Session.min_width session)
                with
                | Ok w ->
                    work :=
                      Printf.sprintf "served=warm words=%.0f" (Spans.last ()).Spans.words;
                    P.response ?id:req.P.id ~served_by:P.Warm ~min_width:w
                      P.Done
                | Error m -> P.response ?id:req.P.id ~message:m P.Failed)
            | Route | Certify -> (
                let key =
                  Session.cache_key session ~width:r.width
                    ~budget_signature:(P.budget_signature req)
                    ~certify:req.P.certify
                in
                match
                  Spans.record "server.cache_lookup" (fun () ->
                      Answer_cache.find cache key)
                with
                | Some run ->
                    P.response ?id:req.P.id ~served_by:P.Cache ~run P.Done
                | None ->
                    let t_run = Unix.gettimeofday () in
                    let run, served_by =
                      if req.P.certify then
                        ( Spans.record "server.cold_route" (fun () ->
                              C.Flow.submit
                                C.Flow.(
                                  default_request |> with_strategy strategy
                                  |> with_certify true)
                                (Session.route session) ~width:r.width),
                          P.Cold )
                      else begin
                        let run =
                          Spans.record "server.warm_route" (fun () ->
                              Session.route_warm session ~width:r.width)
                        in
                        warm_conflicts :=
                          !warm_conflicts
                          + run.C.Flow.solver_stats.Sat.Stats.conflicts;
                        (run, P.Warm)
                      end
                    in
                    let st = run.C.Flow.solver_stats in
                    add_stats st;
                    work :=
                      Printf.sprintf
                        "served=%s clauses=%d conflicts=%d propagations=%d \
                         decisions=%d learnt_literals=%d proof_steps=%d \
                         words=%.0f"
                        (P.served_by_name served_by)
                        run.C.Flow.cnf_clauses st.Sat.Stats.conflicts
                        st.Sat.Stats.propagations st.Sat.Stats.decisions
                        st.Sat.Stats.learnt_literals
                        (Option.fold run.C.Flow.proof ~none:0
                           ~some:Sat.Proof.num_steps)
                        (Spans.last ()).Spans.words;
                    let json =
                      Spans.record "engine.record" (fun () ->
                          Eng.Run_record.to_json
                            (Eng.Run_record.of_run ~benchmark:r.bench
                               ~wall_seconds:(Unix.gettimeofday () -. t_run)
                               run))
                    in
                    if C.Flow.decisive run.C.Flow.outcome then
                      Answer_cache.add cache key json;
                    P.response ?id:req.P.id ~served_by ~run:json P.Done)
          in
          let out =
            Spans.record "server.respond" (fun () ->
                J.to_string (P.response_to_json response))
          in
          if not (verdict_ok r response) then incr wrong;
          ignore out);
      counters :=
        (r.rid, Printf.sprintf "%s#%d" ident occurrence, !work) :: !counters;
      Hashtbl.replace stage_s r.rid (Unix.gettimeofday () -. t0))
    reqs;
  let hits, misses, _ = Answer_cache.stats cache in
  {
    stage_s;
    warm_conflicts = !warm_conflicts;
    solver;
    wrong = !wrong;
    hits;
    lookups = hits + misses;
    counters = List.rev !counters;
  }
