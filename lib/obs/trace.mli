(** A low-overhead in-memory ring buffer of timestamped solver events.

    One trace collects the lifecycle events of any number of solver runs:
    restarts, learnt-database reductions, inprocessing passes, memory polls
    ({!Fpgasat_sat.Event.t} via {!sink}), plus engine-level retry and
    quarantine marks and solve begin/end spans recorded directly. Recording
    is four array stores and an atomic fetch-and-add — no allocation — so a
    trace can stay attached to production sweeps; multiple domains may
    record into one trace concurrently. The buffer keeps the most recent
    [capacity] events (power of two, default 4096); older ones are
    overwritten and only counted.

    When tracing is {e disabled} the cost is zero: {!record_opt} on [None]
    is a single match, and a solver with [on_event = None] never allocates
    an event (test_obs pins both down as allocation-free).

    Dumps: {!to_json} is the stable [fpgasat.trace/1] schema; {!to_chrome}
    is the Chrome [trace_event] format loadable in [chrome://tracing],
    Perfetto or speedscope. *)

type kind =
  | Solve_begin  (** [a] = width. Paired with the next {!Solve_end}. *)
  | Solve_end  (** [a] = width, [b] = 1 if the outcome was decisive. *)
  | Restart  (** [a] = cumulative restart count. *)
  | Reduce_db  (** [a] = learnt clauses before, [b] = deleted. *)
  | Memout_poll  (** [a] = major-heap words at the poll. *)
  | Retry  (** [a] = attempt number about to start (≥ 2). *)
  | Quarantine  (** [a] = attempts spent before giving up. *)
  | Inprocess
      (** [a] = clauses strengthened or deleted, [b] = literals removed by
          one bounded inprocessing pass. *)

val kind_name : kind -> string

type t

val default_capacity : int
(** 4096 events. *)

val create : ?capacity:int -> unit -> t
(** A fresh trace; [capacity] (default {!default_capacity}) is rounded up
    to a power of two. The creation instant becomes the {!epoch} that
    {!to_chrome} timestamps are relative to. *)

val record : t -> kind -> int -> int -> unit
(** [record t kind a b] appends one event stamped with the current wall
    clock. Safe from any domain; allocation-free. *)

val record_opt : t option -> kind -> int -> int -> unit
(** {!record} when a trace is attached, nothing otherwise. Arguments are
    positional so the disabled call allocates nothing (optional-labelled
    ints would box). *)

val sink : t -> Fpgasat_sat.Event.t -> unit
(** The adapter for {!Fpgasat_sat.Solver.budget.on_event}: maps solver
    events onto {!record}. *)

val sink_opt : t option -> (Fpgasat_sat.Event.t -> unit) option
(** [sink] lifted to the optional hook field. *)

val capacity : t -> int
val total : t -> int
(** Events ever recorded, including overwritten ones. *)

val length : t -> int
(** Events currently retained: [min (total t) (capacity t)]. *)

val epoch : t -> float
(** Creation time (Unix seconds). *)

type event = { ts : float; kind : kind; a : int; b : int }

val events : t -> event list
(** The retained window in recording order (oldest first). Not
    synchronised with concurrent recorders: a snapshot taken while solvers
    are still running may contain a torn in-flight slot. *)

val schema_version : string
(** ["fpgasat.trace/1"]. *)

val to_json : t -> Json.t
(** [{"schema":"fpgasat.trace/1","epoch":s,"capacity":n,"dropped":n,
    "events":[{"ts":s,"kind":...,"a":n,"b":n},...]}] — [dropped] counts
    overwritten events. *)

val to_chrome : ?pid:int -> ?tid:int -> t -> Json.t
(** Chrome [trace_event] JSON: point events as instants ([ph:"i"]),
    {!Solve_begin}/{!Solve_end} pairs as complete spans ([ph:"X"]);
    timestamps in microseconds from {!epoch}. *)
