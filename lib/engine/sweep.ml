module Sat = Fpgasat_sat
module Obs = Fpgasat_obs
module C = Fpgasat_core

type fallback = Primary | Fallback_minisat

let fallback_name = function
  | Primary -> "primary"
  | Fallback_minisat -> "minisat"

type job = {
  benchmark : string;
  strategy : string;
  width : int;
  run :
    budget:Sat.Solver.budget ->
    certify:bool ->
    telemetry:bool ->
    fallback:fallback ->
    C.Flow.run;
}

let cell ~benchmark strategy route ~width =
  {
    benchmark;
    strategy = C.Strategy.name strategy;
    width;
    run =
      (fun ~budget ~certify ~telemetry ~fallback ->
        let request =
          C.Flow.(
            default_request |> with_strategy strategy |> with_budget budget
            |> with_certify certify |> with_telemetry telemetry)
        in
        let request =
          match fallback with
          | Primary -> request
          | Fallback_minisat ->
              C.Flow.with_strategy
                {
                  strategy with
                  C.Strategy.solver = Sat.Solver.minisat_like;
                  solver_name = "minisat";
                }
                request
        in
        C.Flow.submit request route ~width);
  }

type progress = { completed : int; total : int; skipped : int }

type retry = {
  max_attempts : int;
  escalation : float;
  fallback_presets : bool;
}

let no_retry = { max_attempts = 1; escalation = 2.0; fallback_presets = false }

type config = {
  jobs : int;
  budget_seconds : float option;
  max_memory_mb : int option;
  poll_every : int;
  out : string option;
  resume : bool;
  certify : bool;
  telemetry : bool;
  trace : Obs.Trace.t option;
  retry : retry;
  capture_backtrace : bool;
  on_progress : (progress -> unit) option;
}

let default_config =
  {
    jobs = Pool.default_jobs ();
    budget_seconds = None;
    max_memory_mb = None;
    poll_every = Sat.Solver.default_poll_interval;
    out = None;
    resume = false;
    certify = false;
    telemetry = false;
    trace = None;
    retry = no_retry;
    capture_backtrace = false;
    on_progress = None;
  }

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let records = ref [] in
      let bad = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Run_record.of_line line with
             | Ok r -> records := r :: !records
             | Error _ -> incr bad
         done
       with End_of_file -> ());
      (List.rev !records, !bad))

let job_key (j : job) =
  Run_record.make_key ~benchmark:j.benchmark ~strategy:j.strategy ~width:j.width

(* ---------- advisory lock ---------- *)

(* The pid-lock scheme lives in {!Lockfile} (shared with the solve server's
   cache journal); the sweep locks its --out path for the whole run. *)
let with_out_lock config f =
  match config.out with
  | None -> f ()
  | Some path -> Lockfile.with_lock path f

(* ---------- per-cell supervision ---------- *)

(* The per-attempt budget: the configured wall-clock deadline as an
   interrupt hook (Sys.time is process CPU time, which accumulates across
   all worker domains and would shrink every job's budget under
   parallelism), the memory ceiling, and the configured poll interval.
   Retries escalate both limits geometrically. *)
let job_budget ?(attempt = 1) config =
  let scale = config.retry.escalation ** float_of_int (attempt - 1) in
  let budget =
    Sat.Solver.with_poll_interval config.poll_every Sat.Solver.no_budget
  in
  (* an attached trace observes every attempt's solver events; the ring is
     domain-safe, so all workers share it *)
  let budget =
    match config.trace with
    | None -> budget
    | Some tr -> Sat.Solver.with_event_hook (Obs.Trace.sink tr) budget
  in
  let budget =
    match config.max_memory_mb with
    | None -> budget
    | Some mb ->
        Sat.Solver.with_memory_limit
          (int_of_float (ceil (float_of_int mb *. scale)))
          budget
  in
  match config.budget_seconds with
  | None -> budget
  | Some seconds ->
      let deadline = Unix.gettimeofday () +. (seconds *. scale) in
      Sat.Solver.interruptible (fun () -> Unix.gettimeofday () > deadline) budget

let fallback_for config ~attempt =
  if (not config.retry.fallback_presets) || attempt <= 1 then Primary
  else Fallback_minisat

(* Runs one cell to its final record: up to [max_attempts] attempts with
   escalating budgets (and optionally the preset ladder siege → minisat),
   classifying every non-decisive ending through {!Failure}.
   [wall_seconds] on the record is the total across attempts — what the
   cell actually cost the sweep. *)
let supervise config job =
  let t0 = Unix.gettimeofday () in
  let max_attempts = max 1 config.retry.max_attempts in
  let attempts_field n = if max_attempts > 1 then Some n else None in
  let rec go attempt =
    let budget = job_budget ~attempt config in
    let fallback = fallback_for config ~attempt in
    let result =
      match
        job.run ~budget ~certify:config.certify ~telemetry:config.telemetry
          ~fallback
      with
      | run -> Ok run
      | exception e ->
          let backtrace =
            if config.capture_backtrace then
              match Printexc.get_backtrace () with "" -> None | bt -> Some bt
            else None
          in
          Error (Failure.of_exn ?backtrace e)
    in
    let classified =
      match result with
      | Ok run -> Failure.of_outcome run.C.Flow.outcome
      | Error f -> Some f
    in
    match classified with
    | None ->
        let run = Result.get_ok result in
        Run_record.of_run ~strategy:job.strategy
          ?attempts:(attempts_field attempt) ~benchmark:job.benchmark
          ~wall_seconds:(Unix.gettimeofday () -. t0)
          run
    | Some _ when attempt < max_attempts ->
        Obs.Trace.record_opt config.trace Obs.Trace.Retry (attempt + 1) 0;
        go (attempt + 1)
    | Some f -> (
        (* final attempt still failed: quarantine iff retries were actually
           allowed — a single-attempt sweep keeps the historical semantics
           where every failed cell is retried by the next --resume *)
        let quarantined = max_attempts > 1 in
        if quarantined then
          Obs.Trace.record_opt config.trace Obs.Trace.Quarantine attempt 0;
        let wall_seconds = Unix.gettimeofday () -. t0 in
        match result with
        | Ok run ->
            Run_record.of_run ~strategy:job.strategy
              ?attempts:(attempts_field attempt) ~failure:(Failure.name f)
              ~quarantined ~benchmark:job.benchmark ~wall_seconds run
        | Error _ ->
            Run_record.crashed
              ?attempts:(attempts_field attempt) ~failure:(Failure.name f)
              ?backtrace:(Failure.backtrace f) ~quarantined
              ~benchmark:job.benchmark ~strategy:job.strategy ~width:job.width
              ~wall_seconds (Failure.message f))
  in
  go 1

(* Which already-recorded cells does --resume trust? Decisive and
   quarantined ones always; a plain failure (timeout/memout/crash) is
   re-run when this sweep is allowed to retry, since that is exactly the
   case the bigger budgets might now answer. Single-attempt sweeps keep the
   historical skip-everything-recorded behaviour. *)
let resume_skips config (r : Run_record.t) =
  config.retry.max_attempts <= 1
  || Run_record.decisive r
  || r.Run_record.quarantined

let run config jobs =
  with_out_lock config @@ fun () ->
  let total = List.length jobs in
  let known =
    match config.out with
    | Some path when config.resume && Sys.file_exists path ->
        let records, _torn = load path in
        let tbl = Hashtbl.create (List.length records) in
        List.iter
          (fun r ->
            if resume_skips config r then
              Hashtbl.replace tbl (Run_record.key r) r)
          records;
        tbl
    | _ -> Hashtbl.create 0
  in
  let skipped = ref 0 in
  let cached, pending =
    List.partition_map
      (fun job ->
        match Hashtbl.find_opt known (job_key job) with
        | Some r ->
            incr skipped;
            Left (job_key job, r)
        | None -> Right job)
      jobs
  in
  let skipped = !skipped in
  let oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      config.out
  in
  Fun.protect
    ~finally:(fun () -> Option.iter close_out_noerr oc)
    (fun () ->
      let lock = Mutex.create () in
      let completed = ref skipped in
      let report () =
        Mutex.lock lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock lock)
          (fun () ->
            incr completed;
            match config.on_progress with
            | Some f -> ( try f { completed = !completed; total; skipped } with _ -> ())
            | None -> ())
      in
      let write record =
        match oc with
        | None -> ()
        | Some oc ->
            Mutex.lock lock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock lock)
              (fun () ->
                output_string oc (Run_record.to_line record);
                output_char oc '\n';
                flush oc)
      in
      (match config.on_progress with
      | Some f when skipped > 0 -> (
          try f { completed = skipped; total; skipped } with _ -> ())
      | _ -> ());
      let thunks =
        Array.of_list
          (List.map
             (fun job () ->
               let record = supervise config job in
               write record;
               report ();
               record)
             pending)
      in
      let results =
        Pool.map ~jobs:config.jobs
          ~record_backtrace:config.capture_backtrace thunks
      in
      (* [supervise] catches everything the cell raises, so a worker can
         only yield Error if the results file write raised — surface that
         instead of fabricating a record. *)
      Array.iter
        (function Ok _ -> () | Error e -> raise (Sys_error e.Pool.message))
        results;
      let pending = Array.of_list pending in
      let fresh = Hashtbl.create (Array.length results) in
      Array.iteri
        (fun i r ->
          match r with
          | Ok record -> Hashtbl.replace fresh (job_key pending.(i)) record
          | Error _ -> ())
        results;
      let cached_tbl = Hashtbl.create (List.length cached) in
      List.iter (fun (k, r) -> Hashtbl.replace cached_tbl k r) cached;
      List.map
        (fun job ->
          let k = job_key job in
          match Hashtbl.find_opt cached_tbl k with
          | Some r -> r
          | None -> Hashtbl.find fresh k)
        jobs)

(* ---------- views ---------- *)

let dedup xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let cell_text (r : Run_record.t) =
  match r.Run_record.outcome with
  | Run_record.Timeout -> "T/O"
  | Run_record.Memout -> "M/O"
  | Run_record.Crashed _ -> "crash"
  | Run_record.Routable | Run_record.Unroutable ->
      C.Report.format_seconds (Run_record.total_seconds r)

let render_table records =
  let row_of (r : Run_record.t) =
    Printf.sprintf "%s (W=%d)" r.Run_record.benchmark r.Run_record.width
  in
  let rows = dedup (List.map row_of records) in
  let cols = dedup (List.map (fun r -> r.Run_record.strategy) records) in
  let tbl = Hashtbl.create (List.length records) in
  List.iter
    (fun r -> Hashtbl.replace tbl (row_of r, r.Run_record.strategy) r)
    records;
  C.Report.matrix ~corner:"Benchmark" ~rows ~cols
    ~cell:(fun ~row ~col ->
      match Hashtbl.find_opt tbl (row, col) with
      | Some r -> cell_text r
      | None -> "-")
    ()

let summary records =
  let count p = List.length (List.filter p records) in
  let base =
    Printf.sprintf
      "%d cells: %d routable, %d unroutable, %d timeout, %d crashed"
      (List.length records)
      (count (fun r -> r.Run_record.outcome = Run_record.Routable))
      (count (fun r -> r.Run_record.outcome = Run_record.Unroutable))
      (count (fun r -> r.Run_record.outcome = Run_record.Timeout))
      (count (fun r ->
           match r.Run_record.outcome with
           | Run_record.Crashed _ -> true
           | _ -> false))
  in
  let memouts = count (fun r -> r.Run_record.outcome = Run_record.Memout) in
  let base =
    if memouts = 0 then base
    else Printf.sprintf "%s, %d memout" base memouts
  in
  let quarantined = count (fun r -> r.Run_record.quarantined) in
  let base =
    if quarantined = 0 then base
    else Printf.sprintf "%s, %d quarantined" base quarantined
  in
  let attempted = count (fun r -> r.Run_record.certified <> None) in
  if attempted = 0 then base
  else
    Printf.sprintf "%s, %d/%d certified" base
      (count (fun r -> r.Run_record.certified = Some true))
      attempted
