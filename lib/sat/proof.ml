type step = Add of Lit.t list | Delete of Lit.t list

(* Steps live in one flat int arena: a header word [(len lsl 1) lor tag]
   (tag 1 for a deletion) followed by the step's [len] literals. *)
type t = {
  mutable data : int array;
  mutable fill : int;
  mutable count : int;
  mutable last_add_len : int; (* -1 until the first addition *)
}

let create () = { data = Array.make 64 0; fill = 0; count = 0; last_add_len = -1 }

let reserve t n =
  if t.fill + n > Array.length t.data then begin
    let a = Array.make (max (t.fill + n) (2 * Array.length t.data)) 0 in
    Array.blit t.data 0 a 0 t.fill;
    t.data <- a
  end

let header t ~delete len =
  reserve t (len + 1);
  t.data.(t.fill) <- (len lsl 1) lor if delete then 1 else 0;
  t.fill <- t.fill + 1;
  t.count <- t.count + 1;
  if not delete then t.last_add_len <- len

let push_list t ~delete lits =
  header t ~delete (List.length lits);
  List.iter
    (fun l ->
      t.data.(t.fill) <- l;
      t.fill <- t.fill + 1)
    lits

let push_sub t ~delete src off len =
  header t ~delete len;
  Array.blit src off t.data t.fill len;
  t.fill <- t.fill + len

let add t lits = push_list t ~delete:false lits
let add_array t lits = push_sub t ~delete:false lits 0 (Array.length lits)
let delete t lits = push_list t ~delete:true lits
let delete_sub t src off len = push_sub t ~delete:true src off len
let num_steps t = t.count
let ends_with_empty t = t.last_add_len = 0

let iter t ~f =
  let pos = ref 0 in
  while !pos < t.fill do
    let h = t.data.(!pos) in
    let len = h lsr 1 in
    f ~delete:(h land 1 = 1) t.data (!pos + 1) len;
    pos := !pos + 1 + len
  done

let steps t =
  let acc = ref [] in
  iter t ~f:(fun ~delete data off len ->
      let lits = Array.to_list (Array.sub data off len) in
      acc := (if delete then Delete lits else Add lits) :: !acc);
  List.rev !acc

exception Parse_error of string

let parse_line t line_no line =
  let fail fmt =
    Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line_no s))) fmt
  in
  let tokens =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | [] -> ()
  | "c" :: _ -> ()
  | first :: _ ->
      let is_delete = first = "d" in
      let body = if is_delete then List.tl tokens else tokens in
      let lits, terminated =
        List.fold_left
          (fun (acc, closed) tok ->
            if closed then fail "literals after terminating 0";
            match int_of_string_opt tok with
            | None -> fail "bad literal %S" tok
            | Some 0 -> (acc, true)
            | Some d -> (Lit.of_dimacs d :: acc, false))
          ([], false) body
      in
      if not terminated then fail "missing terminating 0";
      push_list t ~delete:is_delete (List.rev lits)

let parse ic =
  let t = create () in
  let rec loop n =
    match input_line ic with
    | line ->
        parse_line t n line;
        loop (n + 1)
    | exception End_of_file -> t
  in
  loop 1

let parse_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> parse ic)

let output oc t =
  iter t ~f:(fun ~delete data off len ->
      if delete then output_string oc "d ";
      for k = off to off + len - 1 do
        Printf.fprintf oc "%d " (Lit.to_dimacs data.(k))
      done;
      output_string oc "0\n")
