(* Watched-literal forward checker for DRAT traces.

   Clauses live in one flat literal arena (the same layout idea as [Cnf]):
   per-clause offset/length arrays, a liveness flag, and two watched
   literals kept in the first two arena slots of each clause. Watcher lists
   are the solver's packed (blocker, id) lists ([Watch]), and [propagate]
   has the solver's loop shape: a visit whose blocker is true touches no
   clause, a binary clause is answered from its watcher alone (the blocker
   is the other literal, the id carries a tag bit), and only longer clauses
   are dereferenced to find a replacement watch. Nothing on that path
   allocates.

   Propagation is incremental: facts derived at the top level go onto a
   persistent trail that survives across proof steps, and each RUP query
   only assumes the candidate clause's negation on top of that trail and
   undoes exactly its own assignments. Deletions find their clause through
   a hashed index keyed by the clause's literal set and unwatch eagerly —
   O(the two watch lists) — and full occurrence lists (maintained per
   literal, compacted lazily) serve the RAT fallback, which makes the
   checker decide DRAT rather than just RUP. *)

type stats = {
  mutable additions : int;
  mutable rup_steps : int;
  mutable rat_steps : int;
  mutable deletions : int;
  mutable ignored_deletions : int;
  mutable propagations : int;
  mutable visits : int;
  mutable derefs : int;
}

let fresh_stats () =
  {
    additions = 0;
    rup_steps = 0;
    rat_steps = 0;
    deletions = 0;
    ignored_deletions = 0;
    propagations = 0;
    visits = 0;
    derefs = 0;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "additions=%d (rup %d, rat %d) deletions=%d (ignored %d) propagations=%d \
     visits=%d derefs=%d"
    s.additions s.rup_steps s.rat_steps s.deletions s.ignored_deletions
    s.propagations s.visits s.derefs

type error =
  | Bad_step of { step_index : int; reason : string }
  | No_empty_clause of { num_steps : int }

let pp_error fmt = function
  | Bad_step { step_index; reason } ->
      Format.fprintf fmt "proof step %d: %s" step_index reason
  | No_empty_clause { num_steps } ->
      Format.fprintf fmt
        "proof trace (%d steps) does not derive the empty clause" num_steps

type checker = {
  mutable nvars : int;
  mutable assignment : int array; (* -1 false, 0 undef, 1 true; by var *)
  (* clause arena; per-clause arrays are indexed by clause id *)
  mutable arena : int array;
  mutable fill : int;
  mutable nclauses : int;
  mutable offs : int array;
  mutable lens : int array;
  mutable live : bool array;
  (* indexed by literal: watch lists fire when the literal becomes true
     (so [watches.(l)] holds clauses watching [negate l], as in [Solver]);
     [occs.(l)] holds every clause containing [l], for the RAT fallback *)
  mutable watches : Watch.t array;
  mutable occs : int Vec.t array;
  (* persistent top-level trail; entries above a RUP query's mark are
     temporary and undone when the query finishes. Each variable is on it
     at most once, so [nvars] slots suffice. *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable qhead : int;
  mutable contradiction : bool; (* top-level conflict: UNSAT established *)
  (* deletion index: clause ids chained per bucket of their literal-set
     hash, newest first; [next] links a chain, -1 ends it *)
  mutable hashes : int array;
  mutable distinct : int array; (* distinct literals per clause *)
  mutable next : int array;
  mutable buckets : int array;
  mutable indexed : int;
  (* literal stamps: [stamps.(l) = stamp] marks [l] as a member of the set
     being hashed or compared; [key_hash]/[key_size] describe that set *)
  mutable stamps : int array;
  mutable stamp : int;
  mutable key_hash : int;
  mutable key_size : int;
  mutable resolvent : int array; (* RAT scratch buffer *)
  stats : stats;
}

let create nvars =
  let nvars = max nvars 1 in
  {
    nvars;
    assignment = Array.make nvars 0;
    arena = Array.make 256 0;
    fill = 0;
    nclauses = 0;
    offs = Array.make 64 0;
    lens = Array.make 64 0;
    live = Array.make 64 false;
    watches = Array.init (2 * nvars) (fun _ -> Watch.create ());
    occs = Array.init (2 * nvars) (fun _ -> Vec.create ~dummy:0 ());
    trail = Array.make nvars 0;
    trail_size = 0;
    qhead = 0;
    contradiction = false;
    hashes = Array.make 64 0;
    distinct = Array.make 64 0;
    next = Array.make 64 (-1);
    buckets = Array.make 64 (-1);
    indexed = 0;
    stamps = Array.make (2 * nvars) 0;
    stamp = 0;
    key_hash = 0;
    key_size = 0;
    resolvent = Array.make 16 0;
    stats = fresh_stats ();
  }

(* [a] copied into a fresh array of length [n >= Array.length a], the new
   tail filled with [x] *)
let extend a n x =
  let b = Array.make n x in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow st v =
  if v >= st.nvars then begin
    let n = max (v + 1) (2 * st.nvars) in
    st.assignment <- extend st.assignment n 0;
    st.trail <- extend st.trail n 0;
    st.stamps <- extend st.stamps (2 * n) 0;
    let w = Array.init (2 * n) (fun _ -> Watch.create ()) in
    Array.blit st.watches 0 w 0 (2 * st.nvars);
    st.watches <- w;
    let o = Array.init (2 * n) (fun _ -> Vec.create ~dummy:0 ()) in
    Array.blit st.occs 0 o 0 (2 * st.nvars);
    st.occs <- o;
    st.nvars <- n
  end

let grow_for st src off len =
  for k = off to off + len - 1 do
    grow st (Lit.var src.(k))
  done

let ensure_arena st extra =
  if st.fill + extra > Array.length st.arena then
    st.arena <-
      extend st.arena (max (st.fill + extra) (2 * Array.length st.arena)) 0

let ensure_clause_slot st =
  let cap = Array.length st.offs in
  if st.nclauses >= cap then begin
    st.offs <- extend st.offs (2 * cap) 0;
    st.lens <- extend st.lens (2 * cap) 0;
    st.live <- extend st.live (2 * cap) false;
    st.hashes <- extend st.hashes (2 * cap) 0;
    st.distinct <- extend st.distinct (2 * cap) 0;
    st.next <- extend st.next (2 * cap) (-1)
  end

let[@inline] lit_value assignment l =
  let a = assignment.(l lsr 1) in
  if l land 1 = 0 then a else -a

let value st l = lit_value st.assignment l

let assign st l =
  st.assignment.(Lit.var l) <- (if Lit.sign l then 1 else -1);
  st.trail.(st.trail_size) <- l;
  st.trail_size <- st.trail_size + 1

(* Watcher ids: a clause id shifted left, tag bit 1 for binary clauses,
   whose watchers are answered without touching the arena. *)
let watch_id st cid = (cid lsl 1) lor if st.lens.(cid) = 2 then 1 else 0

(* Watched-literal propagation from [qhead]; returns [true] on conflict.
   On conflict the queue is drained so the caller can undo cleanly. *)
let propagate st =
  let assignment = st.assignment and arena = st.arena and trail = st.trail in
  let offs = st.offs and lens = st.lens in
  let conflict = ref false in
  let visits = ref 0 and derefs = ref 0 and props = ref 0 in
  while (not !conflict) && st.qhead < st.trail_size do
    let p = trail.(st.qhead) in
    st.qhead <- st.qhead + 1;
    incr props;
    let false_lit = Lit.negate p in
    let ws = st.watches.(p) in
    let wdata = ws.Watch.data in
    let n = ws.Watch.size in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let blocker = wdata.(!i) in
      let w = wdata.(!i + 1) in
      i := !i + 2;
      incr visits;
      let bv = lit_value assignment blocker in
      if bv = 1 then begin
        wdata.(!j) <- blocker;
        wdata.(!j + 1) <- w;
        j := !j + 2
      end
      else begin
        (* [implied] is the literal the clause forces when every other
           literal is false; -1 when it is satisfied or was re-watched *)
        let implied =
          if w land 1 = 1 then begin
            (* binary: the blocker is the other literal *)
            wdata.(!j) <- blocker;
            wdata.(!j + 1) <- w;
            j := !j + 2;
            blocker
          end
          else begin
            incr derefs;
            let off = offs.(w lsr 1) in
            let stop = off + lens.(w lsr 1) in
            (* make sure the false literal is at position 1 *)
            if arena.(off) = false_lit then begin
              arena.(off) <- arena.(off + 1);
              arena.(off + 1) <- false_lit
            end;
            let first = arena.(off) in
            if first <> blocker && lit_value assignment first = 1 then begin
              (* satisfied: keep the watcher, refresh the blocker *)
              wdata.(!j) <- first;
              wdata.(!j + 1) <- w;
              j := !j + 2;
              -1
            end
            else begin
              let k = ref (off + 2) in
              while !k < stop && lit_value assignment arena.(!k) = -1 do
                incr k
              done;
              if !k < stop then begin
                arena.(off + 1) <- arena.(!k);
                arena.(!k) <- false_lit;
                (* never the list being traversed: the new watch is
                   non-false, while [false_lit] is false *)
                Watch.push st.watches.(Lit.negate arena.(off + 1)) first w;
                -1
              end
              else begin
                wdata.(!j) <- first;
                wdata.(!j + 1) <- w;
                j := !j + 2;
                first
              end
            end
          end
        in
        if implied >= 0 then
          if lit_value assignment implied = -1 then begin
            conflict := true;
            st.qhead <- st.trail_size;
            while !i < n do
              wdata.(!j) <- wdata.(!i);
              wdata.(!j + 1) <- wdata.(!i + 1);
              i := !i + 2;
              j := !j + 2
            done
          end
          else assign st implied
      end
    done;
    ws.Watch.size <- !j
  done;
  let s = st.stats in
  s.propagations <- s.propagations + !props;
  s.visits <- s.visits + !visits;
  s.derefs <- s.derefs + !derefs;
  !conflict

let undo_to st mark =
  for k = mark to st.trail_size - 1 do
    st.assignment.(Lit.var st.trail.(k)) <- 0
  done;
  st.trail_size <- mark;
  st.qhead <- min st.qhead mark

(* Order-independent hash of a literal set: the sum of a per-literal mix,
   each distinct literal counted once. *)
let mix l =
  let x = (l + 1) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let bucket st h = (h lxor (h lsr 17)) land (Array.length st.buckets - 1)

(* Stamp the distinct literals of [src.(off) .. src.(off + len - 1)] with a
   fresh stamp and set [key_hash]/[key_size] to their set's hash and size.
   Every literal's variable must be below [nvars]. *)
let stamp_key st src off len =
  st.stamp <- st.stamp + 1;
  let s = st.stamp and stamps = st.stamps in
  let h = ref 0 and size = ref 0 in
  for k = off to off + len - 1 do
    let l = src.(k) in
    if stamps.(l) <> s then begin
      stamps.(l) <- s;
      h := !h + mix l;
      incr size
    end
  done;
  st.key_hash <- !h;
  st.key_size <- !size

let index_insert st cid =
  let b = bucket st st.hashes.(cid) in
  st.next.(cid) <- st.buckets.(b);
  st.buckets.(b) <- cid

(* Keep at most one indexed clause per bucket on average. Re-inserting in
   ascending id order rebuilds every chain newest first. *)
let index_add st cid =
  if st.indexed >= Array.length st.buckets then begin
    st.buckets <- Array.make (2 * Array.length st.buckets) (-1);
    for c = 0 to cid - 1 do
      if st.live.(c) then index_insert st c
    done
  end;
  index_insert st cid;
  st.indexed <- st.indexed + 1

(* Append the clause to the arena and register it everywhere; then account
   for it under the persistent assignment: a falsified clause establishes
   the contradiction, a unit is asserted on the persistent trail and
   propagated, anything longer gets two non-false watches. *)
let add_and_install st src off len =
  grow_for st src off len;
  ensure_arena st len;
  ensure_clause_slot st;
  let coff = st.fill in
  Array.blit src off st.arena coff len;
  st.fill <- st.fill + len;
  let cid = st.nclauses in
  st.nclauses <- cid + 1;
  st.offs.(cid) <- coff;
  st.lens.(cid) <- len;
  st.live.(cid) <- true;
  for k = coff to coff + len - 1 do
    Vec.push st.occs.(st.arena.(k)) cid
  done;
  stamp_key st st.arena coff len;
  st.hashes.(cid) <- st.key_hash;
  st.distinct.(cid) <- st.key_size;
  index_add st cid;
  (* move up to two non-false literals into the watch slots *)
  let arena = st.arena in
  let found = ref 0 in
  let k = ref coff in
  while !found < 2 && !k < coff + len do
    if value st arena.(!k) <> -1 then begin
      let tmp = arena.(coff + !found) in
      arena.(coff + !found) <- arena.(!k);
      arena.(!k) <- tmp;
      incr found
    end;
    incr k
  done;
  if !found = 0 then st.contradiction <- true
  else begin
    if len >= 2 then begin
      let l0 = arena.(coff) and l1 = arena.(coff + 1) in
      let w = watch_id st cid in
      Watch.push st.watches.(Lit.negate l0) l1 w;
      Watch.push st.watches.(Lit.negate l1) l0 w
    end;
    if !found = 1 && value st arena.(coff) = 0 then begin
      assign st arena.(coff);
      if propagate st then st.contradiction <- true
    end
  end

(* RUP: assume the negation of every literal on top of the persistent
   trail; derivable iff propagation conflicts. Tautologies and clauses
   already satisfied at the top level conflict immediately. *)
let rup st src off len =
  st.contradiction
  ||
  let mark = st.trail_size in
  let satisfied = ref false in
  let k = ref off in
  while (not !satisfied) && !k < off + len do
    let l = src.(!k) in
    let v = value st l in
    if v = 1 then satisfied := true
    else if v = 0 then assign st (Lit.negate l);
    incr k
  done;
  let conflict = !satisfied || propagate st in
  undo_to st mark;
  conflict

(* RAT on the first literal (the DRAT pivot convention): every live clause
   containing the pivot's negation must yield a RUP resolvent. Occurrence
   lists are compacted in passing. *)
let rat st src off len =
  len > 0
  &&
  let pivot = src.(off) in
  let neg = Lit.negate pivot in
  Lit.var neg >= st.nvars (* no clause can contain it *)
  ||
  let occ = st.occs.(neg) in
  let ok = ref true in
  let j = ref 0 in
  for i = 0 to Vec.size occ - 1 do
    let cid = Vec.get occ i in
    if st.live.(cid) then begin
      Vec.set occ !j cid;
      incr j;
      if !ok then begin
        let coff = st.offs.(cid) and clen = st.lens.(cid) in
        if Array.length st.resolvent < len + clen then
          st.resolvent <- Array.make (2 * (len + clen)) 0;
        let r = st.resolvent and n = ref 0 in
        for k = off to off + len - 1 do
          if src.(k) <> pivot then begin
            r.(!n) <- src.(k);
            incr n
          end
        done;
        for k = coff to coff + clen - 1 do
          if st.arena.(k) <> neg then begin
            r.(!n) <- st.arena.(k);
            incr n
          end
        done;
        if not (rup st r 0 !n) then ok := false
      end
    end
  done;
  Vec.shrink occ !j;
  !ok

let rec all_stamped stamps s arena k stop =
  k >= stop || (stamps.(arena.(k)) = s && all_stamped stamps s arena (k + 1) stop)

(* Deleting a clause that is not present is a tolerated no-op (the
   drat-trim convention): solvers simplify at load time, so traces
   legitimately reference clauses the checker never saw. A deletion
   matches a clause with the same literal set — order and repeats do not
   matter — and removes the most recently added such copy. Deletions of
   unit clauses do not retract their propagations (also as in
   drat-trim). *)
let delete st src off len =
  let known = ref true in
  for k = off to off + len - 1 do
    if Lit.var src.(k) >= st.nvars then known := false
  done;
  let cid =
    if not !known then -1 (* mentions a variable no clause has *)
    else begin
      stamp_key st src off len;
      let h = st.key_hash and size = st.key_size and s = st.stamp in
      let b = bucket st h in
      let prev = ref (-1) and c = ref st.buckets.(b) in
      while
        !c >= 0
        && not
             (st.hashes.(!c) = h
             && st.distinct.(!c) = size
             && all_stamped st.stamps s st.arena st.offs.(!c)
                  (st.offs.(!c) + st.lens.(!c)))
      do
        prev := !c;
        c := st.next.(!c)
      done;
      (* unlink the match from its chain *)
      if !c >= 0 then
        if !prev < 0 then st.buckets.(b) <- st.next.(!c)
        else st.next.(!prev) <- st.next.(!c);
      !c
    end
  in
  if cid < 0 then st.stats.ignored_deletions <- st.stats.ignored_deletions + 1
  else begin
    st.live.(cid) <- false;
    st.indexed <- st.indexed - 1;
    let off = st.offs.(cid) in
    if st.lens.(cid) >= 2 then begin
      let w = watch_id st cid in
      Watch.remove st.watches.(Lit.negate st.arena.(off)) w;
      Watch.remove st.watches.(Lit.negate st.arena.(off + 1)) w
    end;
    st.stats.deletions <- st.stats.deletions + 1
  end

let load cnf =
  let st = create (Cnf.num_vars cnf) in
  Cnf.iter_clauses' cnf ~f:(fun arena off len ->
      if not st.contradiction then add_and_install st arena off len);
  st

let is_rup cnf clause =
  let st = load cnf in
  let a = Array.of_list clause in
  grow_for st a 0 (Array.length a);
  rup st a 0 (Array.length a)

let is_rat cnf clause =
  let st = load cnf in
  let a = Array.of_list clause in
  let len = Array.length a in
  grow_for st a 0 len;
  rup st a 0 len || rat st a 0 len

(* Replays the trace straight from the proof's arena; [Exit] stops the walk
   once UNSAT is established or a step fails. *)
let check cnf proof =
  let st = load cnf in
  let step = ref 0 and failed = ref false in
  (try
     Proof.iter proof ~f:(fun ~delete:is_delete data off len ->
         if st.contradiction then raise Exit;
         if is_delete then delete st data off len
         else begin
           st.stats.additions <- st.stats.additions + 1;
           grow_for st data off len;
           if rup st data off len then begin
             st.stats.rup_steps <- st.stats.rup_steps + 1;
             add_and_install st data off len
           end
           else if rat st data off len then begin
             st.stats.rat_steps <- st.stats.rat_steps + 1;
             add_and_install st data off len
           end
           else begin
             failed := true;
             raise Exit
           end
         end;
         incr step)
   with Exit -> ());
  if !failed then
    Error
      (Bad_step
         { step_index = !step; reason = "added clause is neither RUP nor RAT" })
  else if st.contradiction then Ok st.stats
  else Error (No_empty_clause { num_steps = Proof.num_steps proof })

(* ------------------------------------------------------------------ *)
(* Reference checker: the original list-scanning implementation, kept as
   a differential-testing oracle and as the baseline the bench harness
   measures the watched-literal checker against. Quadratic: every RUP
   query re-propagates over the whole clause list. *)

module Reference = struct
  type rstate = {
    mutable rnvars : int;
    mutable rassignment : int array;
    mutable rclauses : (Lit.t array * bool ref) list;
  }

  let rcreate nvars =
    { rnvars = nvars; rassignment = Array.make (max nvars 1) 0; rclauses = [] }

  let rgrow st v =
    if v >= st.rnvars then begin
      let n = v + 1 in
      let a = Array.make n 0 in
      Array.blit st.rassignment 0 a 0 st.rnvars;
      st.rassignment <- a;
      st.rnvars <- n
    end

  let radd st lits =
    let arr = Array.of_list lits in
    Array.iter (fun l -> rgrow st (Lit.var l)) arr;
    st.rclauses <- (arr, ref true) :: st.rclauses

  let rdelete st lits =
    let target = List.sort Lit.compare lits in
    let rec find = function
      | [] -> false
      | (arr, live) :: rest ->
          if !live && List.sort Lit.compare (Array.to_list arr) = target then begin
            live := false;
            true
          end
          else find rest
    in
    find st.rclauses

  let rvalue st l =
    let a = st.rassignment.(Lit.var l) in
    if Lit.sign l then a else -a

  let propagates_to_conflict st assumptions =
    let trail = ref [] in
    let conflict = ref false in
    let assign l =
      match rvalue st l with
      | 1 -> ()
      | -1 -> conflict := true
      | _ ->
          st.rassignment.(Lit.var l) <- (if Lit.sign l then 1 else -1);
          trail := l :: !trail
    in
    List.iter assign assumptions;
    let progress = ref true in
    while (not !conflict) && !progress do
      progress := false;
      List.iter
        (fun (arr, live) ->
          if !live && not !conflict then begin
            let satisfied = ref false in
            let unassigned = ref [] in
            Array.iter
              (fun l ->
                match rvalue st l with
                | 1 -> satisfied := true
                | 0 -> unassigned := l :: !unassigned
                | _ -> ())
              arr;
            if not !satisfied then
              match !unassigned with
              | [] -> conflict := true
              | [ l ] ->
                  assign l;
                  progress := true
              | _ :: _ :: _ -> ()
          end)
        st.rclauses
    done;
    List.iter (fun l -> st.rassignment.(Lit.var l) <- 0) !trail;
    !conflict

  let rrup st lits =
    let negated = List.map Lit.negate lits in
    let tauto = List.exists (fun l -> List.mem (Lit.negate l) lits) lits in
    tauto || propagates_to_conflict st negated
end

let check_reference cnf proof =
  let open Reference in
  let st = rcreate (Cnf.num_vars cnf) in
  Cnf.iter_clauses' cnf ~f:(fun arena off len ->
      radd st (Array.to_list (Array.sub arena off len)));
  let steps = Proof.steps proof in
  let num_steps = List.length steps in
  let rec go i saw_empty = function
    | [] ->
        if saw_empty then Ok () else Error (No_empty_clause { num_steps })
    | step :: rest -> (
        match step with
        | Proof.Add lits ->
            if not (rrup st lits) then
              Error (Bad_step { step_index = i; reason = "added clause is not RUP" })
            else begin
              radd st lits;
              if lits = [] then Ok () else go (i + 1) saw_empty rest
            end
        | Proof.Delete lits ->
            ignore (rdelete st lits);
            go (i + 1) saw_empty rest)
  in
  go 0 false steps
