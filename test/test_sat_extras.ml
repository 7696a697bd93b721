(* Tests for the SAT extras: the DRAT forward checker and incremental
   assumptions — each cross-checked against the CDCL solver on random
   formulas. *)

module Lit = Fpgasat_sat.Lit
module Cnf = Fpgasat_sat.Cnf
module Solver = Fpgasat_sat.Solver
module Proof = Fpgasat_sat.Proof
module Drat = Fpgasat_sat.Drat_check

let cnf_of nvars clauses =
  let cnf = Cnf.create () in
  Cnf.ensure_vars cnf nvars;
  List.iter (fun c -> Cnf.add_clause cnf (List.map Lit.of_dimacs c)) clauses;
  cnf

let gen_random_cnf =
  QCheck2.Gen.(
    let* nvars = int_range 1 8 in
    let* nclauses = int_range 1 30 in
    let* clauses =
      list_repeat nclauses
        (let* width = int_range 1 4 in
         list_repeat width
           (let* v = int_range 0 (nvars - 1) in
            let* sign = bool in
            return (Lit.make v sign)))
    in
    return (nvars, clauses))

let build (nvars, clauses) =
  let cnf = Cnf.create () in
  Cnf.ensure_vars cnf nvars;
  List.iter (Cnf.add_clause cnf) clauses;
  cnf

let php pigeons holes =
  let cnf = Cnf.create () in
  let v = Array.init pigeons (fun _ -> Cnf.fresh_vars cnf holes) in
  for p = 0 to pigeons - 1 do
    Cnf.add_clause cnf (Array.to_list (Array.map Lit.pos v.(p)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Cnf.add_clause cnf [ Lit.neg_of v.(p1).(h); Lit.neg_of v.(p2).(h) ]
      done
    done
  done;
  cnf

(* --- Drat_check --- *)

let test_drat_accepts_php_proof () =
  let cnf = php 5 4 in
  let proof = Proof.create () in
  (match Solver.solve ~proof cnf with
  | Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "PHP 5/4 is UNSAT");
  match Drat.check cnf proof with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

let test_drat_rejects_bogus_addition () =
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let proof = Proof.create () in
  Proof.add proof [ Lit.pos 0 ];
  (* neither implied by unit propagation nor RAT on its pivot *)
  Proof.add proof [];
  match Drat.check cnf proof with
  | Error (Drat.Bad_step { step_index; reason }) ->
      Alcotest.(check int) "fails at the bogus step" 0 step_index;
      Alcotest.(check string) "complains about the inference"
        "added clause is neither RUP nor RAT" reason
  | Error (Drat.No_empty_clause _) -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "bogus proof accepted"

(* XOR-shaped: UNSAT, but not by unit propagation alone, so the checker
   cannot conclude at load time *)
let xor_unsat () = cnf_of 2 [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ]

let test_drat_rejects_missing_empty () =
  let cnf = xor_unsat () in
  let proof = Proof.create () in
  (* one (tolerated) deletion step, but no addition ever derives empty *)
  Proof.delete proof [ Lit.pos 0; Lit.pos 1 ];
  match Drat.check cnf proof with
  | Error (Drat.No_empty_clause { num_steps }) ->
      (* the trace length, not a phantom step index one past the end *)
      Alcotest.(check int) "reports the trace length" 1 num_steps;
      let msg = Format.asprintf "%a" Drat.pp_error (Drat.No_empty_clause { num_steps }) in
      Alcotest.(check bool) "pp mentions the length" true
        (msg = "proof trace (1 steps) does not derive the empty clause")
  | Error (Drat.Bad_step _) -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "incomplete trace accepted"

let test_drat_tolerates_absent_deletion () =
  let cnf = xor_unsat () in
  let proof = Proof.create () in
  (* deleting a clause that was never present is a counted no-op
     (drat-trim convention; the solver's load-time simplification makes
     external traces hit this legitimately) *)
  Proof.delete proof [ Lit.pos 0; Lit.neg_of 1; Lit.pos 1 ];
  Proof.add proof [ Lit.pos 1 ];
  (* (x1) is RUP; installing it propagates to a top-level conflict *)
  match Drat.check cnf proof with
  | Ok stats ->
      Alcotest.(check int) "ignored deletion counted" 1
        stats.Drat.ignored_deletions;
      Alcotest.(check int) "no real deletion" 0 stats.Drat.deletions;
      Alcotest.(check int) "one rup addition" 1 stats.Drat.rup_steps
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

let test_drat_real_deletion_counted () =
  (* the xor core plus a redundant clause (1|3) that the trace deletes
     before finishing the refutation *)
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ]; [ 1; 3 ] ] in
  let proof = Proof.create () in
  Proof.delete proof [ Lit.pos 0; Lit.pos 2 ];
  Proof.add proof [ Lit.pos 1 ];
  match Drat.check cnf proof with
  | Ok stats ->
      Alcotest.(check int) "deletion counted" 1 stats.Drat.deletions;
      Alcotest.(check int) "no ignored deletion" 0 stats.Drat.ignored_deletions
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

(* Deletion through the hashed set index, inline binary watchers and
   moved long watches. Each control run without the deletion shows the
   lemma is otherwise accepted (the trace then ends without the empty
   clause). *)

let expect_bad_step name step proof cnf =
  match Drat.check cnf proof with
  | Error (Drat.Bad_step { step_index; _ }) ->
      Alcotest.(check int) (name ^ ": rejected step") step step_index
  | Error (Drat.No_empty_clause _) ->
      Alcotest.fail (name ^ ": lemma accepted after its clause was deleted")
  | Ok _ -> Alcotest.fail (name ^ ": trace accepted")

let expect_lemmas_pass name proof cnf =
  match Drat.check cnf proof with
  | Error (Drat.No_empty_clause _) -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%s: %a" name Drat.pp_error e)
  | Ok _ -> Alcotest.fail (name ^ ": no refutation was expected")

let lits = List.map Lit.of_dimacs

let test_drat_deleted_binary_stops () =
  (* (-1 2 5) is RUP only through the binary (-1 2); not RAT on -1, since
     the resolvent (2 5 3) with (1 3) is not RUP *)
  let cnf = cnf_of 4 [ [ -1; 2 ]; [ 1; 3 ]; [ -3; 4 ] ] in
  let control = Proof.create () in
  Proof.add control (lits [ -1; 2; 5 ]);
  expect_lemmas_pass "control" control cnf;
  let proof = Proof.create () in
  Proof.delete proof (lits [ -1; 2 ]);
  Proof.add proof (lits [ -1; 2; 5 ]);
  expect_bad_step "binary" 1 proof cnf

let test_drat_deleted_long_stops () =
  (* the first lemma assumes 1, which moves the watch of (-1 2 3) off -1;
     the deletion must then find the clause's watchers where they moved *)
  let cnf = cnf_of 5 [ [ -1; 2; 3 ]; [ 1; 4 ]; [ -4; 5 ] ] in
  let lemma0 = lits [ -1; -4; 5 ] and lemma = lits [ -1; 2; 3; 6 ] in
  let control = Proof.create () in
  Proof.add control lemma0;
  Proof.add control lemma;
  expect_lemmas_pass "control" control cnf;
  let proof = Proof.create () in
  Proof.add proof lemma0;
  Proof.delete proof (lits [ -1; 2; 3 ]);
  Proof.add proof lemma;
  expect_bad_step "long clause" 2 proof cnf

let test_drat_deletion_matches_set () =
  (* permuted, with a repeated literal: still the clause (-1 2 3) *)
  let cnf = cnf_of 4 [ [ -1; 2; 3 ]; [ 1; 4 ] ] in
  let proof = Proof.create () in
  Proof.delete proof (lits [ 3; -1; 2; 3 ]);
  Proof.add proof (lits [ -1; 2; 3; 5 ]);
  expect_bad_step "set-matched deletion" 1 proof cnf;
  (* the same deletion, then a refutation of an xor core on 5, 6, so the
     check succeeds and reports its stats *)
  let cnf =
    cnf_of 6 [ [ -1; 2; 3 ]; [ 1; 4 ]; [ 5; 6 ]; [ -5; 6 ]; [ 5; -6 ]; [ -5; -6 ] ]
  in
  let proof = Proof.create () in
  Proof.delete proof (lits [ 3; -1; 2; 3 ]);
  Proof.add proof (lits [ 6 ]);
  match Drat.check cnf proof with
  | Ok stats ->
      Alcotest.(check int) "removed" 1 stats.Drat.deletions;
      Alcotest.(check int) "not ignored" 0 stats.Drat.ignored_deletions
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

(* the clause (-1 2 3) next to (1 4) and an xor core on 7, 8 that the last
   lemma (8) refutes *)
let copies_cnf () =
  cnf_of 8 [ [ -1; 2; 3 ]; [ 1; 4 ]; [ 7; 8 ]; [ -7; 8 ]; [ 7; -8 ]; [ -7; -8 ] ]

let test_drat_identical_copies () =
  let c = lits [ -1; 2; 3 ] and needs_c = lits [ -1; 2; 3; 5 ] in
  let proof = Proof.create () in
  Proof.add proof c;
  Proof.delete proof c;
  Proof.add proof needs_c;
  Proof.delete proof c;
  Proof.delete proof c;
  Proof.add proof (lits [ 8 ]);
  (match Drat.check (copies_cnf ()) proof with
  | Ok stats ->
      Alcotest.(check int) "both copies removed" 2 stats.Drat.deletions;
      Alcotest.(check int) "third deletion ignored" 1 stats.Drat.ignored_deletions;
      Alcotest.(check int) "the remaining copy justified the lemma by RUP" 3
        stats.Drat.rup_steps;
      Alcotest.(check int) "no RAT" 0 stats.Drat.rat_steps
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e));
  let proof = Proof.create () in
  Proof.add proof c;
  Proof.delete proof c;
  Proof.delete proof c;
  Proof.add proof needs_c;
  expect_bad_step "both copies deleted" 3 proof (copies_cnf ())

let test_drat_binary_unit_persists () =
  (* installing (1) derives 2 through the inline binary watcher of (-1 2);
     once that clause is deleted, only the persistent top-level fact 2 makes
     (-3 4) RUP through (-2 -3 4). Were 2 missing, (-3 4) would pass as RAT
     (no clause holds 3), which the rat_steps check catches. *)
  let cnf =
    cnf_of 8
      [ [ 1; 5 ]; [ 1; -5 ]; [ -1; 2 ]; [ -2; -3; 4 ];
        [ 7; 8 ]; [ -7; 8 ]; [ 7; -8 ]; [ -7; -8 ] ]
  in
  let proof = Proof.create () in
  Proof.add proof (lits [ 1 ]);
  Proof.delete proof (lits [ -1; 2 ]);
  Proof.add proof (lits [ -3; 4 ]);
  Proof.add proof (lits [ 8 ]);
  match Drat.check cnf proof with
  | Ok stats ->
      Alcotest.(check int) "all lemmas RUP" 3 stats.Drat.rup_steps;
      Alcotest.(check int) "no RAT" 0 stats.Drat.rat_steps;
      Alcotest.(check int) "binary clause deleted" 1 stats.Drat.deletions
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

let test_drat_work_counters () =
  (* every dereference is a visit; PHP's binary clauses are answered
     without one *)
  let cnf = php 5 4 in
  let proof = Proof.create () in
  ignore (Solver.solve ~proof cnf);
  match Drat.check cnf proof with
  | Ok stats ->
      Alcotest.(check bool) "visits happen" true (stats.Drat.visits > 0);
      Alcotest.(check bool) "derefs <= visits" true
        (stats.Drat.derefs <= stats.Drat.visits);
      Alcotest.(check bool) "binary watchers skip the arena" true
        (stats.Drat.derefs < stats.Drat.visits)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

let test_is_rat () =
  (* F = {(a|b), (-a|c), (-b|c)}: (a) is not RUP — assuming -a propagates
     nothing to conflict — but is RAT on a: the sole resolvent (c) is RUP *)
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ] ] in
  Alcotest.(check bool) "not RUP" false (Drat.is_rup cnf [ Lit.pos 0 ]);
  Alcotest.(check bool) "but RAT" true (Drat.is_rat cnf [ Lit.pos 0 ]);
  Alcotest.(check bool) "RUP clauses are RAT too" true
    (Drat.is_rat cnf [ Lit.pos 0; Lit.pos 2 ])

let test_is_rup () =
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -2; 3 ] ] in
  (* asserting -1 forces 2, which forces 3, so (1 | 3) is RUP *)
  Alcotest.(check bool) "implied clause" true
    (Drat.is_rup cnf [ Lit.pos 0; Lit.pos 2 ]);
  Alcotest.(check bool) "unrelated clause" false
    (Drat.is_rup cnf [ Lit.pos 0 ])

let prop_drat_checks_solver_proofs =
  QCheck2.Test.make ~count:300 ~name:"solver refutations pass the DRAT checker"
    gen_random_cnf (fun input ->
      let cnf = build input in
      let proof = Proof.create () in
      match Solver.solve ~proof cnf with
      | Solver.Unsat, _ -> Result.is_ok (Drat.check cnf proof)
      | (Solver.Sat _ | Solver.Unknown | Solver.Memout), _ -> true)

let prop_drat_agrees_with_reference =
  QCheck2.Test.make ~count:300
    ~name:"watched-literal checker agrees with the reference checker"
    gen_random_cnf (fun input ->
      let cnf = build input in
      let proof = Proof.create () in
      match Solver.solve ~proof cnf with
      | Solver.Unsat, _ ->
          Result.is_ok (Drat.check cnf proof)
          = Result.is_ok (Drat.check_reference cnf proof)
      | (Solver.Sat _ | Solver.Unknown | Solver.Memout), _ -> true)

(* Mutation differential: the two properties above feed only valid solver
   proofs, which a checker that accepts everything would pass. Here every
   refutation of a seeded random 3-CNF gets one seeded corruption, and the
   fast checker is held against two list-scanning oracles: whatever
   [check_reference] accepts it must accept, and it must agree with
   [persistent_rup] below up to RAT, which only the fast checker decides. A
   floor on the rejected share keeps the property from passing vacuously.

   [check_reference] alone cannot bound the fast checker from above: it
   re-derives every fact from the live clauses, while the fast checker
   keeps top-level facts on its trail after the clause that implied them
   is deleted (the drat-trim convention), so it rightly accepts some
   traces the reference rejects — seed 2008 trial 81 is one. *)

let set_of l = List.sort_uniq Lit.compare l

(* Naive RUP checker with the fast checker's conventions: top-level facts
   derived as clauses arrive survive later deletions; a deletion removes
   the newest live clause with the same literal set; the trace is accepted
   once the top level conflicts. *)
let persistent_rup cnf steps =
  let nvars =
    List.fold_left
      (fun n -> function
        | Proof.Add l | Proof.Delete l ->
            List.fold_left (fun n x -> max n (Lit.var x + 1)) n l)
      (Cnf.num_vars cnf) steps
  in
  let value = Array.make (max nvars 1) 0 in
  let lit_value l = if Lit.sign l then value.(Lit.var l) else -value.(Lit.var l) in
  let set l = value.(Lit.var l) <- (if Lit.sign l then 1 else -1) in
  let clauses = ref [] (* (literals, live), newest first *) in
  (* unit propagation to fixpoint over the live clauses; returns whether it
     conflicted and the variables it assigned *)
  let propagate () =
    let assigned = ref [] and conflict = ref false and progress = ref true in
    while (not !conflict) && !progress do
      progress := false;
      List.iter
        (fun (c, live) ->
          if !live && (not !conflict) && not (List.exists (fun l -> lit_value l = 1) c)
          then
            match List.filter (fun l -> lit_value l = 0) c with
            | [] -> conflict := true
            | [ l ] ->
                set l;
                assigned := Lit.var l :: !assigned;
                progress := true
            | _ -> ())
        !clauses
    done;
    (!conflict, !assigned)
  in
  let contradiction = ref false in
  let add c =
    clauses := (c, ref true) :: !clauses;
    if fst (propagate ()) then contradiction := true
  in
  (* a literal true before or under the earlier assumptions (as in a
     tautology) makes the clause RUP at once *)
  let rup c =
    !contradiction
    ||
    let assumed = ref [] in
    let satisfied =
      List.exists
        (fun l ->
          let v = lit_value l in
          if v = 0 then begin
            set (Lit.negate l);
            assumed := Lit.var l :: !assumed
          end;
          v = 1)
        c
    in
    let conflict, assigned = if satisfied then (true, []) else propagate () in
    List.iter (fun v -> value.(v) <- 0) (!assumed @ assigned);
    conflict
  in
  let delete c =
    let key = set_of c in
    match List.find_opt (fun (d, live) -> !live && set_of d = key) !clauses with
    | Some (_, live) -> live := false
    | None -> ()
  in
  Cnf.iter_clauses' cnf ~f:(fun arena off len ->
      if not !contradiction then add (Array.to_list (Array.sub arena off len)));
  let rec go = function
    | _ when !contradiction -> true
    | [] -> false
    | Proof.Add c :: rest -> rup c && (add c; go rest)
    | Proof.Delete c :: rest ->
        delete c;
        go rest
  in
  go steps

type corruption = Drop_lit | Flip_lit | Drop_lemma | Early_delete

let corruption_name = function
  | Drop_lit -> "drop a literal"
  | Flip_lit -> "flip a literal"
  | Drop_lemma -> "drop a lemma"
  | Early_delete -> "delete early"

let random_3cnf rng =
  let nvars = 30 + Random.State.int rng 16 in
  let nclauses = (46 * nvars / 10) + Random.State.int rng 4 in
  List.init nclauses (fun _ ->
      List.init 3 (fun _ -> Lit.make (Random.State.int rng nvars) (Random.State.bool rng)))
  |> fun clauses -> build (nvars, clauses)

(* One corruption of [steps], or [None] when the trace has no lemma to
   corrupt. A lemma is a non-empty addition: the final empty clause is the
   claim itself, and the fast checker may legitimately stop before it.
   [Early_delete] moves a deletion to just after the addition of its clause
   (the trace start for an input clause), ahead of the lemmas that may
   still need it; a trace without deletions gets [Flip_lit] instead. *)
let corrupt rng steps =
  let steps = Array.of_list steps in
  let indices p =
    List.filter (fun i -> p steps.(i)) (List.init (Array.length steps) Fun.id)
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let lemmas = indices (function Proof.Add (_ :: _) -> true | _ -> false) in
  let deletions = indices (function Proof.Delete _ -> true | _ -> false) in
  if lemmas = [] then None
  else
    let kind =
      match Random.State.int rng 4 with
      | 0 -> Drop_lit
      | 1 -> Flip_lit
      | 2 -> Drop_lemma
      | _ -> if deletions = [] then Flip_lit else Early_delete
    in
    let without i = List.filteri (fun k _ -> k <> i) (Array.to_list steps) in
    let edit_lemma f =
      let i = pick lemmas in
      match steps.(i) with
      | Proof.Add lits ->
          let k = Random.State.int rng (List.length lits) in
          steps.(i) <- Proof.Add (f k lits);
          Array.to_list steps
      | Proof.Delete _ -> assert false
    in
    let mutated =
      match kind with
      | Drop_lit -> edit_lemma (fun k lits -> List.filteri (fun j _ -> j <> k) lits)
      | Flip_lit ->
          edit_lemma (fun k lits ->
              List.mapi (fun j l -> if j = k then Lit.negate l else l) lits)
      | Drop_lemma -> without (pick lemmas)
      | Early_delete ->
          let p = pick deletions in
          let target =
            match steps.(p) with Proof.Delete l -> set_of l | Proof.Add _ -> []
          in
          let added_at =
            List.fold_left
              (fun acc i ->
                match steps.(i) with
                | Proof.Add l when i < p && set_of l = target -> i + 1
                | _ -> acc)
              0 (List.init p Fun.id)
          in
          let rest = without p in
          List.filteri (fun k _ -> k < added_at) rest
          @ (steps.(p) :: List.filteri (fun k _ -> k >= added_at) rest)
    in
    Some (kind, mutated)

let mutation_seed = 2008

(* frequent restarts, each followed by inprocessing, so the traces carry
   the add/delete pairs of strengthened clauses *)
let mutation_config =
  { Solver.default with restart = Solver.Luby_restarts 8; inprocess_every = 1 }

let test_drat_mutation_differential () =
  let trials = 200 in
  let mutated = ref 0 and rejected = ref 0 in
  for trial = 0 to trials - 1 do
    let rng = Random.State.make [| mutation_seed; trial |] in
    let cnf = random_3cnf rng in
    let proof = Proof.create () in
    match Solver.solve ~config:mutation_config ~proof cnf with
    | Solver.Unsat, _ -> (
        match corrupt rng (Proof.steps proof) with
        | None -> ()
        | Some (kind, steps) ->
            let bad = Proof.create () in
            List.iter
              (function
                | Proof.Add l -> Proof.add bad l | Proof.Delete l -> Proof.delete bad l)
              steps;
            incr mutated;
            let fast = Drat.check cnf bad in
            let reference = Result.is_ok (Drat.check_reference cnf bad) in
            let persistent = persistent_rup cnf steps in
            let fail what =
              Alcotest.failf "seed %d, trial %d (%s): %s" mutation_seed trial
                (corruption_name kind) what
            in
            (match fast with
            | Ok stats ->
                if (not persistent) && stats.Drat.rat_steps = 0 then
                  fail "fast checker accepts a trace the naive checker rejects"
            | Error _ ->
                incr rejected;
                if reference then
                  fail "reference accepts a trace the fast checker rejects";
                if persistent then
                  fail "naive checker accepts a trace the fast checker rejects"))
    | (Solver.Sat _ | Solver.Unknown | Solver.Memout), _ -> ()
  done;
  if !mutated < trials / 4 then
    Alcotest.failf "seed %d: only %d of %d trials gave a corrupted refutation"
      mutation_seed !mutated trials;
  if 4 * !rejected < !mutated then
    Alcotest.failf "seed %d: only %d of %d corrupted traces rejected (< 25%%)"
      mutation_seed !rejected !mutated

let test_proof_parse_roundtrip () =
  let proof = Proof.create () in
  Proof.add proof [ Lit.pos 0; Lit.neg_of 1 ];
  Proof.delete proof [ Lit.pos 2 ];
  Proof.add proof [];
  let path = Filename.temp_file "fpgasat" ".drat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Proof.output oc proof;
      close_out oc;
      let parsed = Proof.parse_file path in
      Alcotest.(check bool) "steps survive the round trip" true
        (Proof.steps parsed = Proof.steps proof))

(* --- Solver.restart_limit_of_config --- *)

let test_restart_limit_clamps () =
  let cfg = { Solver.default with Solver.restart = Solver.Geometric (100, 1.5) } in
  (* 100 * 1.5^k overflows float->int conversion far before k = 1000;
     int_of_float of an out-of-range float is unspecified, so the limit
     must clamp instead of going negative or garbage *)
  Alcotest.(check int) "clamped at huge k" max_int
    (Solver.restart_limit_of_config cfg 1000);
  Alcotest.(check int) "small k exact" 150
    (Solver.restart_limit_of_config cfg 1);
  let prev = ref 0 in
  for k = 0 to 200 do
    let l = Solver.restart_limit_of_config cfg k in
    Alcotest.(check bool) "monotone and positive" true (l >= !prev && l > 0);
    prev := l
  done

(* --- incremental solving with assumptions --- *)

let gen_assumptions nvars =
  QCheck2.Gen.(
    let* n = int_range 0 (min 4 nvars) in
    list_repeat n
      (let* v = int_range 0 (nvars - 1) in
       let* sign = bool in
       return (Lit.make v sign)))

let prop_assumptions_match_unit_clauses =
  QCheck2.Test.make ~count:400
    ~name:"solve_with assumptions = solve with unit clauses"
    QCheck2.Gen.(
      gen_random_cnf >>= fun ((nvars, _) as input) ->
      pair (return input) (gen_assumptions nvars))
    (fun (input, assumptions) ->
      let cnf = build input in
      let solver = Solver.create cnf in
      let incremental = Solver.solve_with ~assumptions solver in
      let augmented = build input in
      List.iter (fun l -> Fpgasat_sat.Cnf.add_clause augmented [ l ]) assumptions;
      let reference = fst (Solver.solve augmented) in
      match (incremental, reference) with
      | Solver.Q_sat m, Solver.Sat _ ->
          Solver.check_model augmented m
          && List.for_all
               (fun l -> m.(Lit.var l) = Lit.sign l)
               assumptions
      | Solver.Q_unsat, Solver.Unsat -> true
      | _ -> false)

let prop_solver_reusable_across_queries =
  QCheck2.Test.make ~count:200
    ~name:"one solver answers a query sequence consistently"
    QCheck2.Gen.(
      gen_random_cnf >>= fun ((nvars, _) as input) ->
      pair (return input)
        (list_repeat 4 (gen_assumptions nvars)))
    (fun (input, queries) ->
      let cnf = build input in
      let solver = Solver.create cnf in
      List.for_all
        (fun assumptions ->
          let incremental = Solver.solve_with ~assumptions solver in
          let augmented = build input in
          List.iter
            (fun l -> Fpgasat_sat.Cnf.add_clause augmented [ l ])
            assumptions;
          match (incremental, fst (Solver.solve augmented)) with
          | Solver.Q_sat m, Solver.Sat _ -> Solver.check_model augmented m
          | Solver.Q_unsat, Solver.Unsat -> true
          | _ -> false)
        queries)

(* Regression: [Stats.max_decision_level] was only advanced when a free
   decision opened a level, never when an assumption did. The chain below is
   fully determined by one assumption plus unit propagation — no free
   decision ever happens — so the pre-fix watermark stayed at 0. *)
let test_assumption_levels_raise_max_level () =
  let cnf = cnf_of 4 [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ] in
  let solver = Solver.create cnf in
  (match Solver.solve_with ~assumptions:[ Lit.of_dimacs 1 ] solver with
  | Solver.Q_sat m ->
      Alcotest.(check bool) "chain propagated" true (m.(0) && m.(1) && m.(2) && m.(3))
  | _ -> Alcotest.fail "chain under assumption is SAT");
  let stats = Solver.solver_stats solver in
  Alcotest.(check bool)
    "assumption level counted in max_decision_level" true
    (stats.Fpgasat_sat.Stats.max_decision_level >= 1);
  Alcotest.(check int) "only the assumption opened a level" 1
    stats.Fpgasat_sat.Stats.decisions

let test_assumptions_out_of_range_rejected () =
  let cnf = cnf_of 1 [ [ 1 ] ] in
  let solver = Solver.create cnf in
  Alcotest.check_raises "oob assumption"
    (Invalid_argument "Solver.solve_with: assumption variable out of range")
    (fun () -> ignore (Solver.solve_with ~assumptions:[ Lit.pos 9 ] solver))

let test_solver_stats_accumulate () =
  let cnf = php 6 5 in
  let solver = Solver.create cnf in
  (match Solver.solve_with solver with
  | Solver.Q_unsat -> ()
  | _ -> Alcotest.fail "PHP 6/5 is UNSAT");
  let after_first = (Solver.solver_stats solver).Fpgasat_sat.Stats.conflicts in
  (* the second call hits st.ok = false immediately *)
  (match Solver.solve_with solver with
  | Solver.Q_unsat -> ()
  | _ -> Alcotest.fail "still UNSAT");
  let after_second = (Solver.solver_stats solver).Fpgasat_sat.Stats.conflicts in
  Alcotest.(check bool) "first call worked" true (after_first > 0);
  Alcotest.(check int) "second call free" after_first after_second

(* --- permanent level-0 units --- *)

let query_name = function
  | Solver.Q_sat _ -> "sat"
  | Solver.Q_unsat -> "unsat"
  | Solver.Q_unknown -> "unknown"
  | Solver.Q_memout -> "memout"

let test_unit_persists () =
  let cnf = cnf_of 2 [ [ 1; 2 ] ] in
  let solver = Solver.create cnf in
  Solver.assert_unit solver (Lit.of_dimacs (-1));
  let expect_model what =
    match Solver.solve_with solver with
    | Solver.Q_sat m ->
        Alcotest.(check bool) (what ^ ": x1 stays false") false m.(0);
        Alcotest.(check bool) (what ^ ": x2 forced") true m.(1)
    | q -> Alcotest.fail (what ^ ": expected sat, got " ^ query_name q)
  in
  expect_model "first call";
  expect_model "second call";
  (* an assumption against the unit fails the query, not the formula *)
  Alcotest.(check string) "assumption x1 refuted" "unsat"
    (query_name (Solver.solve_with ~assumptions:[ Lit.of_dimacs 1 ] solver));
  expect_model "after a failed assumption";
  (* asserting a unit already true at level 0 changes nothing *)
  Solver.assert_unit solver (Lit.of_dimacs 2);
  expect_model "after a satisfied unit"

let test_unit_conflict_is_final () =
  (* ~x2 propagates x1 through (x1 | x2) and falsifies (~x1 | x2) *)
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -1; 2 ] ] in
  let solver = Solver.create cnf in
  Alcotest.(check string) "sat before" "sat" (query_name (Solver.solve_with solver));
  Solver.assert_unit solver (Lit.of_dimacs (-2));
  List.iter
    (fun assumptions ->
      Alcotest.(check string) "unsat for good" "unsat"
        (query_name (Solver.solve_with ~assumptions solver)))
    [ []; [ Lit.of_dimacs 2 ]; [ Lit.of_dimacs 3 ]; [] ];
  (* a unit against an earlier unit is a level-0 conflict too *)
  let solver = Solver.create (cnf_of 2 [ [ 1; 2 ] ]) in
  Solver.assert_unit solver (Lit.of_dimacs 2);
  Solver.assert_unit solver (Lit.of_dimacs (-2));
  Alcotest.(check string) "opposite units" "unsat"
    (query_name (Solver.solve_with solver))

let test_unit_rejected_with_proof () =
  let cnf = cnf_of 2 [ [ 1; 2 ] ] in
  let solver = Solver.create ~proof:(Proof.create ()) cnf in
  Alcotest.check_raises "proof-logging solver"
    (Invalid_argument "Solver.assert_unit: the solver records a DRAT proof")
    (fun () -> Solver.assert_unit solver (Lit.of_dimacs 1));
  let solver = Solver.create cnf in
  Alcotest.check_raises "variable out of range"
    (Invalid_argument "Solver.assert_unit: variable out of range")
    (fun () -> Solver.assert_unit solver (Lit.pos 9))

(* Solve, assert a unit, solve again: each answer must agree with a fresh
   solver on the CNF plus the units asserted so far. Seeded random 3-CNFs
   near the threshold give both verdicts. *)
let test_units_match_fresh_solver () =
  let seed = 2008 in
  let answers = Hashtbl.create 2 in
  for trial = 0 to 149 do
    let rng = Random.State.make [| seed; trial |] in
    let cnf = random_3cnf rng in
    let nvars = Cnf.num_vars cnf in
    let solver = Solver.create cnf in
    ignore (Solver.solve_with solver);
    let units = ref [] in
    for round = 1 to 2 do
      let l = Lit.make (Random.State.int rng nvars) (Random.State.bool rng) in
      units := l :: !units;
      Solver.assert_unit solver l;
      let augmented = Cnf.copy cnf in
      List.iter (fun u -> Cnf.add_clause augmented [ u ]) !units;
      let what = Printf.sprintf "seed %d trial %d round %d" seed trial round in
      match (Solver.solve_with solver, fst (Solver.solve augmented)) with
      | Solver.Q_sat m, Solver.Sat _ ->
          Hashtbl.replace answers "sat" ();
          Alcotest.(check bool) (what ^ ": model") true
            (Solver.check_model augmented m)
      | Solver.Q_unsat, Solver.Unsat -> Hashtbl.replace answers "unsat" ()
      | q, _ -> Alcotest.fail (what ^ ": incremental said " ^ query_name q)
    done
  done;
  Alcotest.(check int) "both verdicts seen" 2 (Hashtbl.length answers)

let qtests = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sat-extras"
    [
      ( "drat-check",
        Alcotest.test_case "accepts PHP proof" `Quick test_drat_accepts_php_proof
        :: Alcotest.test_case "rejects bogus addition" `Quick
             test_drat_rejects_bogus_addition
        :: Alcotest.test_case "rejects missing empty clause" `Quick
             test_drat_rejects_missing_empty
        :: Alcotest.test_case "tolerates absent deletion" `Quick
             test_drat_tolerates_absent_deletion
        :: Alcotest.test_case "counts real deletions" `Quick
             test_drat_real_deletion_counted
        :: Alcotest.test_case "deleted binary stops propagating" `Quick
             test_drat_deleted_binary_stops
        :: Alcotest.test_case "deleted long clause stops propagating" `Quick
             test_drat_deleted_long_stops
        :: Alcotest.test_case "deletion matches the literal set" `Quick
             test_drat_deletion_matches_set
        :: Alcotest.test_case "identical copies deleted one at a time" `Quick
             test_drat_identical_copies
        :: Alcotest.test_case "binary-watcher unit persists" `Quick
             test_drat_binary_unit_persists
        :: Alcotest.test_case "work counters" `Quick test_drat_work_counters
        :: Alcotest.test_case "is_rup" `Quick test_is_rup
        :: Alcotest.test_case "is_rat" `Quick test_is_rat
        :: Alcotest.test_case "corrupted refutations: checkers agree" `Quick
             test_drat_mutation_differential
        :: Alcotest.test_case "proof parse round trip" `Quick
             test_proof_parse_roundtrip
        :: qtests
             [ prop_drat_checks_solver_proofs; prop_drat_agrees_with_reference ]
      );
      ( "restart-limit",
        [ Alcotest.test_case "geometric clamps to max_int" `Quick
            test_restart_limit_clamps ] );
      ( "assumptions",
        Alcotest.test_case "assumption levels raise max_level" `Quick
          test_assumption_levels_raise_max_level
        :: Alcotest.test_case "out of range rejected" `Quick
          test_assumptions_out_of_range_rejected
        :: Alcotest.test_case "stats accumulate" `Quick test_solver_stats_accumulate
        :: Alcotest.test_case "level-0 unit persists" `Quick test_unit_persists
        :: Alcotest.test_case "level-0 unit conflict is final" `Quick
             test_unit_conflict_is_final
        :: Alcotest.test_case "level-0 unit rejected with a proof" `Quick
             test_unit_rejected_with_proof
        :: Alcotest.test_case "level-0 units match a fresh solver" `Quick
             test_units_match_fresh_solver
        :: qtests
             [ prop_assumptions_match_unit_clauses; prop_solver_reusable_across_queries ]
      );
    ]
