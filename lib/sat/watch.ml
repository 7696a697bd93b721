type t = { mutable data : int array; mutable size : int }

let create () = { data = [||]; size = 0 }

let push w blocker id =
  let cap = Array.length w.data in
  if w.size + 2 > cap then begin
    let ndata = Array.make (max 8 (2 * cap)) 0 in
    Array.blit w.data 0 ndata 0 w.size;
    w.data <- ndata
  end;
  w.data.(w.size) <- blocker;
  w.data.(w.size + 1) <- id;
  w.size <- w.size + 2

let remove w id =
  let i = ref 0 in
  while !i < w.size && w.data.(!i + 1) <> id do
    i := !i + 2
  done;
  if !i < w.size then begin
    w.data.(!i) <- w.data.(w.size - 2);
    w.data.(!i + 1) <- w.data.(w.size - 1);
    w.size <- w.size - 2
  end
