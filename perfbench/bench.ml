(* The repository benchmark. Usage (from the repository root, after
   `dune build ./perfbench/bench.exe ./bin/fpgasat.exe`; perfbench/run.py
   does both):

     bench.exe --workload unsat-proof|sat-slack|serve-mix --seed N
               --seconds S --trace 0|1 [--fpgasat PATH] [--out-dir DIR]

   [--cold-worker I] and [--speed-probe FILE] are internal: they make the
   process one of the query processes of an untraced cold run, or
   serve-mix's speed probe.

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. With [--trace 0] the
   metrics are the end-to-end ones, with [--trace 1] the per-layer ones. *)

module J = Fpgasat_obs.Json

let workloads = [ "unsat-proof"; "sat-slack"; "serve-mix" ]

(* The held-out seed: kept out of tuning, for confirming a claimed gain. *)
let held_out_seed = 20081

(* ---------- small statistics ---------- *)

let sorted xs = List.sort compare xs

(* The Harrell-Davis estimate of the [p] quantile: a weighted mean of all
   order statistics, the weight of the i-th of n being the mass the
   Beta(p(n+1), (1-p)(n+1)) distribution puts on [(i-1)/n, i/n]. Where the
   samples are sparse — the latency tail, or a few distinct queries — it
   varies far less between runs than the single order statistic a plain
   percentile picks. Weights are integrated by the midpoint rule and
   normalised, so no beta function is needed. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let alpha = p *. float_of_int (n + 1)
      and beta = (1. -. p) *. float_of_int (n + 1) in
      let steps = 8 in
      let log_mass i =
        Array.init steps (fun j ->
            let x =
              (float_of_int i +. ((float_of_int j +. 0.5) /. float_of_int steps))
              /. float_of_int n
            in
            ((alpha -. 1.) *. log x) +. ((beta -. 1.) *. log (1. -. x)))
      in
      let logs = Array.init n log_mass in
      let top =
        Array.fold_left
          (fun m l -> Array.fold_left Float.max m l)
          neg_infinity logs
      in
      let w =
        Array.map
          (Array.fold_left (fun acc v -> acc +. exp (v -. top)) 0.)
          logs
      in
      let total = Array.fold_left ( +. ) 0. w in
      let acc = ref 0. in
      Array.iteri (fun i wi -> acc := !acc +. (wi *. a.(i))) w;
      !acc /. total

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

(* ---------- machine description ---------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let cpu_model () =
  let prefix = "model name" in
  match
    List.find_opt
      (fun l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      (read_lines "/proc/cpuinfo")
  with
  | Some l -> (
      match String.index_opt l ':' with
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | None -> "unknown")
  | None -> "unknown"

let machine_line () =
  Printf.sprintf "machine: nproc=%d cpu=%S ocaml=%s"
    (Domain.recommended_domain_count ())
    (cpu_model ()) Sys.ocaml_version

(* ---------- result printing ---------- *)

type metric = string * float * string

let result_line ~correct ~attempted ~failed (metrics : metric list) =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, value, unit) ->
                  (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ]))
                metrics) );
       ])

(* ---------- set-up time ---------- *)

let setup_probes = 31

(* Set-up of a cold workload is what a CLI user pays before the first
   query starts: exec, runtime and module initialisation, and building the
   query list. Each probe is a fresh process of this executable that does
   exactly that and reports on stdout; the figure is the median over
   [setup_probes] probes, timed from spawn to the report. *)
let cold_setup_s ~workload =
  let exe = Sys.executable_name in
  let one () =
    let r, w = Unix.pipe ~cloexec:true () in
    let t0 = Unix.gettimeofday () in
    let pid =
      Unix.create_process exe
        [| exe; "--setup-probe"; "--workload"; workload |]
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    let dt = Unix.gettimeofday () -. t0 in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    if line <> "ready" then failwith "set-up probe did not report";
    dt
  in
  (* each probe is scaled by a kernel run just before it; returns the
     scaled and the raw median *)
  let probes =
    List.init setup_probes (fun _ ->
        let k = Calib.kernel () in
        let dt = one () in
        (Calib.scale ~kernel:k dt, dt))
  in
  (median (List.map fst probes), median (List.map snd probes))

(* ---------- cold workloads ---------- *)

let cold_queries = function
  | "unsat-proof" -> Cold.queries ~offsets:[ -1 ]
  | "sat-slack" -> Cold.queries ~offsets:[ 1; 2 ]
  | w -> invalid_arg w

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let self_hwm_mb () = Serve.read_hwm_mb (Unix.getpid ())

(* Resets this process's VmHWM to its current RSS (Linux 4.0 and later),
   so that the peak of one query can be read after it. *)
let reset_hwm () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* One timed cold query: its key, start and wall time, the reference
   kernel's time around it (see {!Calib}), whether its answer was right,
   and its peak RSS in MB. *)
type cold_sample = {
  key : string;
  start : float;
  wall : float;
  kernel : float;
  ok : bool;
  peak_mb : float;
}

(* A query's kernel time is the median of the kernel runs that started
   within [kernel_window] seconds of the query's span. One kernel run is a
   1-millisecond snapshot: now and then it reads several times too long,
   and a dear query (vda's DRAT-checked refutation takes 8 s) outlasts it
   by far. The median over the runs around the query weighs the machine's
   speed over the query's whole span and ignores the stray reading. *)
let kernel_window = 5.

let smooth_kernels samples =
  List.map
    (fun s ->
      let near =
        List.filter_map
          (fun o ->
            if
              o.start >= s.start -. kernel_window
              && o.start <= s.start +. s.wall +. kernel_window
            then Some o.kernel
            else None)
          samples
      in
      { s with kernel = median near })
    samples

let scaled s = Calib.scale ~kernel:s.kernel s.wall

(* Runs every query once, in a seeded order, then, until [seconds] have
   elapsed, always the query with the least time spent on it so far: each
   query gets about the same share of the run, so the cheap ones are
   sampled many times over the whole run and the dear ones at least once.
   Each query starts from a collected heap, as a CLI query starts in a
   fresh process; the collection and the reference kernel are outside the
   timed call. Returns the samples in run order, with smoothed kernel
   times. *)
let cold_run ~rng ~seconds queries f =
  let t_start = Unix.gettimeofday () in
  let order = shuffle rng queries in
  let spent = Hashtbl.create 64 in
  let samples = ref [] in
  let run q =
    Gc.full_major ();
    reset_hwm ();
    let kernel = Calib.kernel () in
    let start = Unix.gettimeofday () in
    let ok = f q in
    let wall = Unix.gettimeofday () -. start in
    let key = Cold.key q in
    Hashtbl.replace spent key
      (wall +. Option.value (Hashtbl.find_opt spent key) ~default:0.);
    samples :=
      { key; start; wall; kernel; ok; peak_mb = self_hwm_mb () } :: !samples
  in
  List.iter run order;
  let least () =
    List.fold_left
      (fun best q ->
        if Hashtbl.find spent (Cold.key q) < Hashtbl.find spent (Cold.key best)
        then q
        else best)
      (List.hd order) order
  in
  while Unix.gettimeofday () -. t_start < seconds do
    run (least ())
  done;
  smooth_kernels (List.rev !samples)

(* (key, scaled latency, ok) triples, the form [end_to_end] takes. *)
let triples samples = List.map (fun s -> (s.key, scaled s, s.ok)) samples
let raw_triples samples = List.map (fun s -> (s.key, s.wall, s.ok)) samples

let ok_count samples = List.length (List.filter (fun (_, _, ok) -> ok) samples)
let busy samples = sum (List.map (fun (_, l, _) -> l) samples)

(* Mean latency of each key, in ms. On the cold workloads a key is a
   distinct query; on serve-mix every request is its own key. The mean,
   not the median, of a key's repetitions: the machine's speed moves
   between levels for seconds at a time, and the mean weighs every level
   a run went through where the median would pick one. *)
let key_means samples =
  let by_key = Hashtbl.create 512 in
  List.iter
    (fun (k, l, _) ->
      Hashtbl.replace by_key k
        ((l *. 1000.) :: Option.value (Hashtbl.find_opt by_key k) ~default:[]))
    samples;
  Hashtbl.fold
    (fun _ ls acc -> (sum ls /. float_of_int (List.length ls)) :: acc)
    by_key []

(* Latency percentiles are taken over the key means, so how many times a
   query repeats in a run does not change the weight it gets.

   [failed_ratio] is printed, not reported as a metric: it is 0 on a
   healthy run, and a metric must never read 0. [answered_ratio] is its
   complement; any failure also makes the command exit non-zero. *)
let end_to_end ~setup ~samples ~answers_per_s ~rss =
  let lat = key_means samples in
  let attempted = List.length samples in
  let ok = ok_count samples in
  let failed = attempted - ok in
  let p90 = percentile 0.9 lat in
  Printf.printf
    "samples: %d queries, %d keys, %d beyond p90; failed_ratio: %g ratio (%d \
     of %d)\n"
    attempted (List.length lat)
    (List.length (List.filter (fun l -> l > p90) lat))
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  ( attempted,
    failed,
    [
      ("setup_s", setup, "s");
      ("answers_per_s", answers_per_s, "1/s");
      ("latency_p50_ms", median lat, "ms");
      ("latency_p90_ms", p90, "ms");
      ("answered_ratio", float_of_int ok /. float_of_int attempted, "ratio");
      ("peak_rss_mb", rss, "MB");
    ] )

(* The untraced cold workloads run the query set in [cold_workers]
   processes at once, one per core of the recorded machine, each in its
   own seeded order. On that machine each core's speed also jitters over
   seconds, nearly independently of the other core's (correlation 0.2 over
   10-second windows), so two processes average two jitters: over two
   minutes the quartile spread of 10-second windows fell from 0.11-0.12
   for either process alone to 0.07 for their mean, and a run holds twice
   the samples. Each worker writes its samples to a file; the parent
   merges them.

   A process's lifetime peak RSS depends on the order its queries ran in,
   which the seed and the timing decide: the heap a query leaves behind is
   kept for the next. The peak RSS reported is therefore the largest,
   over the distinct queries, of the median peak of each query's runs. *)
let cold_workers = 2

let worker_file ~dir ~workload ~seed i =
  Filename.concat dir
    (Printf.sprintf "queries-%s-seed%d-w%d.txt" workload seed i)

let cold_worker ~workload ~seed ~seconds ~dir i =
  let rng = Random.State.make [| seed; i |] in
  let samples =
    cold_run ~rng ~seconds (cold_queries workload) (fun q ->
        let run, _line = Cold.run q in
        Cold.run_ok q run)
  in
  let oc = open_out (worker_file ~dir ~workload ~seed i) in
  List.iter
    (fun s ->
      Printf.fprintf oc "%s %.6f %.9f %.9f %b %.3f\n" s.key s.start s.wall
        s.kernel s.ok s.peak_mb)
    samples;
  close_out oc

let read_worker_file path =
  List.map
    (fun l ->
      Scanf.sscanf l "%s %f %f %f %B %f" (fun key start wall kernel ok peak_mb ->
          { key; start; wall; kernel; ok; peak_mb }))
    (read_lines path)

(* The largest over keys of each key's median peak. *)
let query_peak_mb samples =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace by_key s.key
        (s.peak_mb :: Option.value (Hashtbl.find_opt by_key s.key) ~default:[]))
    samples;
  Hashtbl.fold (fun _ mbs acc -> Float.max acc (median mbs)) by_key 0.

(* Answers per second of one process answering the query set once, each
   query at its mean latency. *)
let pass_rate triples =
  let means = key_means triples in
  float_of_int (List.length means) /. (sum means /. 1000.)

let run_cold_untraced ~workload ~seed ~seconds ~dir =
  let setup, raw_setup = cold_setup_s ~workload in
  let exe = Sys.executable_name in
  let pids =
    List.init cold_workers (fun i ->
        let path = worker_file ~dir ~workload ~seed i in
        (try Sys.remove path with Sys_error _ -> ());
        Unix.create_process exe
          [|
            exe; "--cold-worker"; string_of_int i; "--workload"; workload;
            "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; "0"; "--out-dir"; dir;
          |]
          Unix.stdin Unix.stdout Unix.stderr)
  in
  (* wait for every worker before looking at any status, so that none
     outlives this process *)
  let statuses = List.map (fun pid -> snd (Unix.waitpid [] pid)) pids in
  if List.exists (fun st -> st <> Unix.WEXITED 0) statuses then
    failwith "a cold worker process failed";
  let samples =
    List.concat_map
      (fun i -> read_worker_file (worker_file ~dir ~workload ~seed i))
      (List.init cold_workers Fun.id)
  in
  let raw = key_means (raw_triples samples) in
  Printf.printf
    "workers: %d processes, %.3f s of queries; kernel median %.6f s \
     (reference %.6f s)\n"
    cold_workers
    (sum (List.map (fun s -> s.wall) samples))
    (median (List.map (fun s -> s.kernel) samples))
    Calib.reference_s;
  Printf.printf
    "unscaled: setup_s=%.6f answers_per_s=%.4f latency_p50_ms=%.4f \
     latency_p90_ms=%.4f\n"
    raw_setup
    (pass_rate (raw_triples samples))
    (median raw) (percentile 0.9 raw);
  let samples' = triples samples in
  end_to_end ~setup ~samples:samples' ~answers_per_s:(pass_rate samples')
    ~rss:(query_peak_mb samples)

(* ---------- per-layer aggregation ---------- *)

(* Layer spans named in the per-layer metrics, with the metric each
   span's summed self time feeds. *)
let layer_spans =
  [
    ("fpga.build", "fpga.build_s");
    ("graph.csp", "graph.csp_s");
    ("encodings.encode", "encodings.encode_s");
    ("sat.load", "sat.load_s");
    ("sat.search", "sat.search_s");
    ("certify.drat", "certify.drat_s");
    ("certify.model_verify", "certify.model_verify_s");
    ("core.decode", "core.decode_s");
    ("engine.record", "engine.record_s");
    ("server.parse", "server.parse_s");
    ("server.cache_lookup", "server.cache_lookup_s");
    ("server.respond", "server.respond_s");
    ("server.session_create", "server.session_create_s");
    ("server.warm_route", "server.warm_route_s");
    ("server.min_width", "server.min_width_s");
    ("server.cold_route", "server.cold_route_s");
  ]

let root_names = [ "query"; "request" ]

(* ---------- counter repetition ---------- *)

(* Work counters of each query, keyed by query identity, are written to
   [dir/counters-<workload>-<digest>.txt] where <digest> identifies this
   executable. A later traced run of the same binary compares its counters
   with the file: any difference is a mismatch. Within one run, the same
   query in two passes must also agree. *)
let check_counters ~dir ~workload (rows : (string * string) list) =
  let digest = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Filename.concat dir (Printf.sprintf "counters-%s-%s.txt" workload digest)
  in
  let table = Hashtbl.create 64 in
  let mismatches = ref 0 in
  let note k v =
    match Hashtbl.find_opt table k with
    | Some v' -> if v <> v' then incr mismatches
    | None -> Hashtbl.replace table k v
  in
  List.iter (fun (k, v) -> note k v) rows;
  let compared_with_earlier = Sys.file_exists path in
  if compared_with_earlier then
    List.iter
      (fun l ->
        match String.index_opt l ' ' with
        | Some i ->
            note (String.sub l 0 i) (String.sub l (i + 1) (String.length l - i - 1))
        | None -> ())
      (read_lines path)
  else begin
    let oc = open_out path in
    Hashtbl.iter (fun k v -> Printf.fprintf oc "%s %s\n" k v) table;
    close_out oc
  end;
  Printf.printf "counters: %d queries, %d mismatches (%s)\n"
    (Hashtbl.length table) !mismatches
    (if compared_with_earlier then "within this run and against " ^ path
     else "within this run; recorded to " ^ path);
  !mismatches

(* ---------- per-layer report ---------- *)

(* Every per-layer metric with its unit, in report order. A workload
   reports 0 for a layer it does not run (no DRAT check on sat-slack, no
   server stage on the cold workloads). *)
let per_layer_units =
  List.map (fun (_, metric) -> (metric, "s")) layer_spans
  @ [
      ("encodings.clauses", "count");
      ("encodings.lits", "count");
      ("encodings.words_alloc", "words");
      ("sat.load_words_alloc", "words");
      ("sat.conflicts", "count");
      ("sat.propagations", "count");
      ("sat.decisions", "count");
      ("sat.learnt_literals", "count");
      ("sat.props_per_s", "1/s");
      ("sat.search_words_alloc", "words");
      ("sat.proof_steps", "count");
      ("certify.drat_propagations", "count");
      ("certify.rup_steps", "count");
      ("certify.rat_steps", "count");
      ("engine.record_bytes", "B");
      ("query.words_alloc", "words");
      ("trace.unaccounted_share", "ratio");
      ("trace.record_cost_share", "ratio");
      ("trace.overhead_share", "ratio");
      ("trace.counter_mismatches", "count");
      ("server.cache_hit_ratio", "ratio");
      ("server.warm_conflicts", "count");
      ("server.served_cache", "count");
      ("server.served_warm", "count");
      ("server.served_cold", "count");
      ("server.transport_queue_s", "s");
    ]

let per_layer_report values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_units) then
        failwith ("unlisted per-layer metric " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      (name, Option.value (List.assoc_opt name values) ~default:0., unit))
    per_layer_units

(* Layer self times per pass, and the trace's own accounting: the share of
   the root spans' time no layer span covers, and the share the recording
   itself took. *)
let span_metrics ~per spans =
  let selfs = Spans.self_times spans in
  let total name =
    sum
      (List.filter_map
         (fun (s, t) -> if s.Spans.name = name then Some t else None)
         selfs)
  in
  let roots =
    List.filter (fun (s, _) -> List.mem s.Spans.name root_names) selfs
  in
  let root_wall =
    sum (List.map (fun (s, _) -> Spans.duration s +. s.Spans.cost) roots)
  in
  List.map (fun (span, metric) -> (metric, total span /. per)) layer_spans
  @ [
      ( "query.words_alloc",
        sum (List.map (fun (s, _) -> s.Spans.words) roots) /. per );
      ("trace.unaccounted_share", sum (List.map snd roots) /. root_wall);
      ( "trace.record_cost_share",
        sum (List.map (fun s -> s.Spans.cost) spans) /. root_wall );
    ]

let write_spans ~dir ~workload ~seed spans =
  let path =
    Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed)
  in
  Spans.write path spans;
  Printf.printf "spans: %d written to %s\n" (List.length spans) path

(* ---------- traced cold workloads ---------- *)

let run_cold_traced ~workload ~rng ~seconds ~dir ~seed =
  let queries = cold_queries workload in
  let counters = ref [] in
  let qid = ref 0 in
  Spans.reset ();
  let traced_pass () =
    triples @@ cold_run ~rng ~seconds:0. queries (fun q ->
        incr qid;
        let run, c = Cold.run_traced ~qid:!qid q in
        let line = Cold.counters_line c in
        (* this query's spans are at the head of the buffer, root first *)
        let own =
          List.filter (fun s -> s.Spans.query = !qid) !Spans.buffer
        in
        Printf.printf "query %d %s %s query_words=%.0f record_bytes=%d %s\n"
          !qid (Cold.key q) line c.Cold.query_words c.Cold.record_bytes
          (String.concat " "
             (List.rev_map
                (fun s ->
                  Printf.sprintf "%s_s=%.6f" s.Spans.name (Spans.duration s))
                own));
        counters := (c, Cold.key q, line) :: !counters;
        Cold.run_ok q run)
  in
  let untraced_pass () =
    triples
      (cold_run ~rng ~seconds:0. queries (fun q ->
           Cold.run_ok q (fst (Cold.run q))))
  in
  (* untraced and traced passes alternate, so both see the same warmed
     heap; the tracing overhead is the drop in answers/s between them *)
  let t_start = Unix.gettimeofday () in
  let samples = ref [] and wall = ref 0. in
  let ref_ok = ref 0 and ref_wall = ref 0. and passes = ref 0 in
  while !passes < 1 || Unix.gettimeofday () -. t_start < seconds do
    incr passes;
    let u = untraced_pass () in
    ref_ok := !ref_ok + ok_count u;
    ref_wall := !ref_wall +. busy u;
    let t = traced_pass () in
    samples := u @ t @ !samples;
    wall := !wall +. busy t
  done;
  let passes = !passes and samples = !samples and wall = !wall in
  let ref_aps = float_of_int !ref_ok /. !ref_wall in
  let spans = Spans.all () in
  write_spans ~dir ~workload ~seed spans;
  let mismatches =
    check_counters ~dir ~workload
      (List.map (fun (_, k, l) -> (k, l)) !counters)
  in
  let per = float_of_int passes in
  let cs = List.map (fun (c, _, _) -> c) !counters in
  let isum f = float_of_int (List.fold_left (fun a c -> a + f c) 0 cs) /. per in
  let fsum f = List.fold_left (fun a c -> a +. f c) 0. cs /. per in
  let from_spans = span_metrics ~per spans in
  let ok = ok_count samples in
  let aps = float_of_int (ok - !ref_ok) /. wall in
  let attempted = List.length samples in
  ( attempted,
    attempted - ok + mismatches,
    per_layer_report
      (from_spans
      @ [
          ("encodings.clauses", isum (fun c -> c.Cold.clauses));
          ("encodings.lits", isum (fun c -> c.Cold.lits));
          ("encodings.words_alloc", fsum (fun c -> c.Cold.encode_words));
          ("sat.load_words_alloc", fsum (fun c -> c.Cold.load_words));
          ("sat.conflicts", isum (fun c -> c.Cold.conflicts));
          ("sat.propagations", isum (fun c -> c.Cold.propagations));
          ("sat.decisions", isum (fun c -> c.Cold.decisions));
          ("sat.learnt_literals", isum (fun c -> c.Cold.learnt_literals));
          ( "sat.props_per_s",
            isum (fun c -> c.Cold.propagations)
            /. List.assoc "sat.search_s" from_spans );
          ("sat.search_words_alloc", fsum (fun c -> c.Cold.search_words));
          ("sat.proof_steps", isum (fun c -> c.Cold.proof_steps));
          ("certify.drat_propagations", isum (fun c -> c.Cold.drat_propagations));
          ("certify.rup_steps", isum (fun c -> c.Cold.rup_steps));
          ("certify.rat_steps", isum (fun c -> c.Cold.rat_steps));
          ("engine.record_bytes", isum (fun c -> c.Cold.record_bytes));
          ("trace.overhead_share", (ref_aps -. aps) /. ref_aps);
          ("trace.counter_mismatches", float_of_int mismatches);
        ]) )

(* ---------- served workload ---------- *)

(* Spawn-to-first-ping time over several fresh servers: the rounds' own
   servers plus extra ones started and stopped only for this. *)
let extra_setup_spawns = 4

(* The server's work runs in another process, where the reference kernel
   cannot run beside it. A speed-probe process runs the kernel every 0.2 s
   for the whole run instead. Each request's latency is scaled by the
   median probe reading within [kernel_window] seconds of its span, as a
   cold query is; each round's wall time by the median reading during the
   round; each server's set-up by the median over the run (see {!Calib}). *)
let run_serve_untraced ~fpgasat ~dir ~rng ~seconds ~seed =
  let probe_file =
    Filename.concat dir (Printf.sprintf "speed-serve-mix-seed%d.txt" seed)
  in
  let exe = Sys.executable_name in
  let probe =
    Unix.create_process exe [| exe; "--speed-probe"; probe_file |] Unix.stdin
      Unix.stdout Unix.stderr
  in
  let setups = ref [] and rounds = ref [] and rss = ref [] in
  let served_bad = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill probe Sys.sigterm;
      ignore (Unix.waitpid [] probe))
    (fun () ->
      for i = 1 to extra_setup_spawns do
        let server, s =
          Serve.spawn ~fpgasat ~dir ~tag:(Printf.sprintf "probe%d" i)
        in
        setups := s :: !setups;
        Serve.stop server
      done;
      let t_start = Unix.gettimeofday () in
      while !rounds = [] || Unix.gettimeofday () -. t_start < seconds do
        let streams = Serve.stream rng in
        let t0 = Unix.gettimeofday () in
        let server, s =
          Serve.spawn ~fpgasat ~dir ~tag:(string_of_int (List.length !rounds))
        in
        setups := s :: !setups;
        let got, w =
          Fun.protect
            ~finally:(fun () ->
              rss := Serve.read_hwm_mb server.Serve.pid :: !rss;
              Serve.stop server)
            (fun () ->
              let got, w = Serve.drive server streams in
              if
                Serve.served_counts (Serve.stats server)
                <> Serve.expected_served
              then incr served_bad;
              (got, w))
        in
        rounds := (t0, Unix.gettimeofday (), got, w) :: !rounds
      done);
  let readings =
    List.filter_map
      (fun l ->
        try Some (Scanf.sscanf l "%f %f" (fun t k -> (t, k)))
        with Scanf.Scan_failure _ | End_of_file -> None)
      (read_lines probe_file)
  in
  let k_all = median (List.map snd readings) in
  let k_between t0 t1 =
    match List.filter (fun (t, _) -> t >= t0 && t <= t1) readings with
    | [] -> k_all
    | within -> median (List.map snd within)
  in
  let scaled_rounds =
    List.map
      (fun (t0, t1, got, w) ->
        ( List.map
            (fun g ->
              let k =
                k_between
                  (g.Serve.start -. kernel_window)
                  (g.Serve.start +. g.Serve.latency +. kernel_window)
              in
              { g with Serve.latency = Calib.scale_probe ~kernel:k g.Serve.latency })
            got,
          Calib.scale_probe ~kernel:(k_between t0 t1) w ))
      !rounds
  in
  let all_got = List.concat_map (fun (_, _, got, _) -> got) !rounds in
  (* every request with its latency, for explaining a slow run later *)
  let path =
    Filename.concat dir (Printf.sprintf "requests-serve-mix-seed%d.txt" seed)
  in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "%s %.6f %b %d\n" (Serve.describe s.Serve.r)
        s.Serve.latency s.Serve.ok s.Serve.conflicts)
    all_got;
  close_out oc;
  let n_rounds = List.length !rounds in
  Printf.printf "rounds: %d of %d requests over %d connections, %d workers\n"
    n_rounds
    (List.length all_got / n_rounds)
    Serve.connections Serve.workers;
  let as_triples l =
    List.mapi (fun i s -> (string_of_int i, s.Serve.latency, s.Serve.ok)) l
  in
  let raw = key_means (as_triples all_got) in
  let raw_wall = sum (List.map (fun (_, _, _, w) -> w) !rounds) in
  Printf.printf
    "speed probe: %d readings, median %.6f s (reference %.6f s)\n"
    (List.length readings) k_all Calib.probe_reference_s;
  Printf.printf
    "unscaled: setup_s=%.6f answers_per_s=%.4f latency_p50_ms=%.6f \
     latency_p90_ms=%.4f\n"
    (median !setups)
    (float_of_int (ok_count (as_triples all_got)) /. raw_wall)
    (median raw) (percentile 0.9 raw);
  let samples = as_triples (List.concat_map fst scaled_rounds) in
  let attempted, failed, metrics =
    end_to_end
      ~setup:(Calib.scale_probe ~kernel:k_all (median !setups))
      ~samples
      ~answers_per_s:
        (float_of_int (ok_count samples) /. sum (List.map snd scaled_rounds))
      ~rss:(median !rss)
  in
  (* a round whose served-by counts differ from the stream's fixed ones
     means the cache was filled out of order: count it as failed *)
  (attempted, failed + !served_bad, metrics)

(* The live round gives the served-by counts and the client-observed
   latencies; the in-process replay of the same stream gives the stage
   times. An untraced replay for the overhead would not fit the run's time
   limit, so on this workload [trace.overhead_share] is the recording cost
   measured inside the spans. *)
let run_serve_traced ~fpgasat ~dir ~rng ~seed =
  let streams = Serve.stream rng in
  let server, _ = Serve.spawn ~fpgasat ~dir ~tag:"traced" in
  let (got, _), stats =
    Fun.protect
      ~finally:(fun () -> Serve.stop server)
      (fun () ->
        let d = Serve.drive server streams in
        (d, Serve.stats server))
  in
  let ((cache, warm, cold) as served) = Serve.served_counts stats in
  Spans.reset ();
  let rp = Serve.replay streams in
  let spans = Spans.all () in
  write_spans ~dir ~workload:"serve-mix" ~seed spans;
  List.iter
    (fun (rid, k, line) ->
      Printf.printf "request %s %s %s stage_s=%.6f\n" rid k line
        (Hashtbl.find rp.Serve.stage_s rid))
    rp.Serve.counters;
  let mismatches =
    check_counters ~dir ~workload:"serve-mix"
      (List.map (fun (_, k, l) -> (k, l)) rp.Serve.counters)
  in
  let transport =
    median
      (List.map
         (fun s ->
           s.Serve.latency -. Hashtbl.find rp.Serve.stage_s s.Serve.r.Serve.rid)
         got)
  in
  let from_spans = span_metrics ~per:1. spans in
  let attempted = List.length got in
  let failed =
    List.length (List.filter (fun s -> not s.Serve.ok) got)
    + rp.Serve.wrong + mismatches
    + if served = Serve.expected_served then 0 else 1
  in
  let st = rp.Serve.solver in
  ( attempted,
    failed,
    per_layer_report
      (from_spans
      @ [
          ("sat.conflicts", float_of_int st.Fpgasat_sat.Stats.conflicts);
          ("sat.propagations", float_of_int st.Fpgasat_sat.Stats.propagations);
          ("sat.decisions", float_of_int st.Fpgasat_sat.Stats.decisions);
          ( "sat.learnt_literals",
            float_of_int st.Fpgasat_sat.Stats.learnt_literals );
          ("trace.overhead_share", List.assoc "trace.record_cost_share" from_spans);
          ("trace.counter_mismatches", float_of_int mismatches);
          ( "server.cache_hit_ratio",
            float_of_int rp.Serve.hits /. float_of_int rp.Serve.lookups );
          ("server.warm_conflicts", float_of_int rp.Serve.warm_conflicts);
          ("server.served_cache", float_of_int cache);
          ("server.served_warm", float_of_int warm);
          ("server.served_cold", float_of_int cold);
          ("server.transport_queue_s", transport);
        ]) )

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload unsat-proof|sat-slack|serve-mix --seed N \
     --seconds S --trace 0|1 [--fpgasat PATH] [--out-dir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.) in
  let trace = ref (-1) and probe = ref false and worker = ref (-1) in
  let fpgasat = ref "_build/default/bin/fpgasat.exe" in
  let dir = ref ".perfbench" in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | "--fpgasat" :: v :: rest ->
        fpgasat := v;
        parse rest
    | "--out-dir" :: v :: rest ->
        dir := v;
        parse rest
    | "--speed-probe" :: path :: _ ->
        (* serve-mix's speed probe: the reference kernel every 0.2 s, each
           reading flushed at once, until the parent kills it *)
        let oc = open_out path in
        while true do
          let k = Calib.kernel () in
          Printf.fprintf oc "%.6f %.9f\n%!" (Unix.gettimeofday ()) k;
          Unix.sleepf 0.2
        done
    | "--setup-probe" :: rest ->
        probe := true;
        parse rest
    | "--cold-worker" :: v :: rest ->
        worker := int_of_string v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  if !probe then begin
    if !workload <> "serve-mix" then ignore (cold_queries !workload);
    print_endline "ready";
    exit 0
  end;
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  if !worker >= 0 then begin
    cold_worker ~workload:!workload ~seed:!seed ~seconds:!seconds ~dir:!dir
      !worker;
    exit 0
  end;
  print_endline (machine_line ());
  Printf.printf "workload: %s seed: %d (held-out seed %d) seconds: %g trace: %d\n%!"
    !workload !seed held_out_seed !seconds !trace;
  let rng = Random.State.make [| !seed |] in
  let attempted, failed, metrics =
    match (!workload, !trace) with
    | "serve-mix", 0 ->
        run_serve_untraced ~fpgasat:!fpgasat ~dir:!dir ~rng ~seconds:!seconds
          ~seed:!seed
    | "serve-mix", _ ->
        run_serve_traced ~fpgasat:!fpgasat ~dir:!dir ~rng ~seed:!seed
    | w, 0 ->
        run_cold_untraced ~workload:w ~seed:!seed ~seconds:!seconds ~dir:!dir
    | w, _ -> run_cold_traced ~workload:w ~rng ~seconds:!seconds ~dir:!dir ~seed:!seed
  in
  print_endline
    (result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)
