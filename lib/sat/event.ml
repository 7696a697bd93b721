(** Solver lifecycle events, delivered through
    {!Solver.budget.on_event}.

    The solver allocates an event value only when a hook is installed
    ([on_event = Some f]); with the default [None] the emission sites
    compile to a single match on an immediate, so tracing costs nothing
    when disabled. Payloads are plain integers — rich context (timestamps,
    run identity) is the consumer's job, see [Fpgasat_obs.Trace]. *)

type t =
  | Restart of int
      (** A scheduled restart fired; payload is the cumulative restart
          count of this solver. *)
  | Reduce_db of int * int
      (** Learnt-clause database reduction: clauses before, clauses
          deleted. *)
  | Memout_poll of int
      (** The memory ceiling was polled; payload is the major-heap size in
          words at the poll. Only emitted when [max_memory_mb] is set. *)
  | Inprocess of int * int
      (** A bounded inprocessing pass (self-subsumption + vivification
          between restarts) finished: clauses strengthened or deleted,
          literals removed. *)

let name = function
  | Restart _ -> "restart"
  | Reduce_db _ -> "reduce_db"
  | Memout_poll _ -> "memout_poll"
  | Inprocess _ -> "inprocess"
