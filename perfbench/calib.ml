(* Machine-speed reference.

   The recorded machine is a virtual machine on a shared host whose speed
   drifts with the host's load: the same sat-slack runs gave 23 answers/s
   and, four minutes later, 12; the warm k2 query of serve-mix did the same
   202708 conflicts in 24 s in one round and 41 s in another. Raw times
   therefore spread from run to run far more than any code change this
   benchmark is meant to detect.

   A fixed kernel of the benchmark's own, timed right before each cold
   query in the same process, after the heap collection that precedes the
   query, measures that drift. Each reported cold time is the measured
   wall time scaled by [reference_s /. k], where [k] is the kernel's time
   around the query (the median over the kernel runs near it, see
   bench.ml): the time the query would take at the machine speed at which
   the kernel takes [reference_s] (its median on the recorded machine).
   The kernel runs no program code, so a change to the program moves the
   scaled times as it moves the raw ones; every cold run prints the raw
   figures too. serve-mix's work runs in the server process, where the
   kernel cannot run beside it; a separate probe process samples the
   kernel through each round instead (see bench.ml).

   The kernel inserts 20000 small records into a growing hash table: the
   allocation, minor collection and pointer traffic the queries are made
   of. Over a 7-minute single-process sat-slack run in which the machine's
   speed moved by 1.5x, its time tracked the queries' slowdown with
   correlation 0.99 over 20-second windows, and scaling each query by it
   cut the windows' quartile spread from 0.166 to 0.016. Candidates that
   tracked worse: a 1 MiB pointer chase (correlation 0.78, spread 0.066), a
   16 MiB one (0.83, 0.38), a unit-propagation loop over a random 3-CNF
   (0.96, 0.069). The kernel runs under the OCaml default collector
   settings whatever the program sets, so that a program change to them
   cannot move it. *)

let reference_s = 0.00128

let records = 20_000

let kernel () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 16 in
  for i = 1 to records do
    Hashtbl.replace h ((i * 7919) land 4095) (i, [ i ])
  done;
  ignore (Sys.opaque_identity h);
  let k = Unix.gettimeofday () -. t0 in
  Gc.set saved;
  k

let scale ~kernel seconds = seconds *. reference_s /. kernel

(* serve-mix's speed probe runs the kernel in a process of its own, after
   a 0.2-second sleep and beside the server's workers, where it reads
   about twice the in-process time; its own reference, its median over
   serve-mix rounds on the recorded machine, keeps serve-mix's scaled
   times near its raw ones. *)
let probe_reference_s = 0.0024

let scale_probe ~kernel seconds = seconds *. probe_reference_s /. kernel
