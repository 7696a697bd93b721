(** Watcher lists shared by {!Solver} and {!Drat_check}.

    A list holds packed [(blocker, id)] int pairs in one flat array, two
    slots per watcher. The blocker is some other literal of the watched
    clause: when it is already true a propagation visit skips the clause
    dereference entirely, which is the common case on dense instances (the
    MiniSat/Glucose blocker trick). The id is whatever the owner uses to
    find the clause — a clause-arena offset in {!Solver}, a tagged clause
    number in {!Drat_check}.

    The record is exposed so hot loops can index [data] directly: watcher
    [k] occupies [data.(2k)] (blocker) and [data.(2k+1)] (id), and only the
    first [size] slots are meaningful. A loop that compacts a list in place
    writes the kept pairs back to the front and then sets [size]. *)

type t = { mutable data : int array; mutable size : int }

val create : unit -> t
(** An empty list; allocates storage on the first {!push}. *)

val push : t -> int -> int -> unit
(** [push w blocker id] appends one watcher, doubling storage when full. *)

val remove : t -> int -> unit
(** [remove w id] drops the first watcher whose id is [id] by moving the
    last watcher into its slot — O(list length), order not preserved. A
    no-op when no watcher has that id. *)
