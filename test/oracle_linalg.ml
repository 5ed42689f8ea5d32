(* The dense Gaussian elimination [Linalg.solve] ran before it was
   confined to the band of non-zeros, kept unchanged as the oracle the
   band-limited solver must match bit for bit. *)

let check_square a b =
  let n = Array.length a in
  if n = 0 then invalid_arg "Linalg: empty system";
  if Array.length b <> n then invalid_arg "Linalg: rhs length mismatch";
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Linalg: non-square matrix") a;
  n

let solve a b =
  let n = check_square a b in
  let a = Array.map Array.copy a in
  let b = Array.copy b in
  for col = 0 to n - 1 do
    (* Partial pivoting. *)
    let pivot = ref col in
    for row = col + 1 to n - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
    done;
    if Float.abs a.(!pivot).(col) < 1e-12 then failwith "Linalg.solve: singular matrix";
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tb = b.(col) in
      b.(col) <- b.(!pivot);
      b.(!pivot) <- tb
    end;
    for row = col + 1 to n - 1 do
      let factor = a.(row).(col) /. a.(col).(col) in
      if factor <> 0.0 then begin
        for k = col to n - 1 do
          a.(row).(k) <- a.(row).(k) -. (factor *. a.(col).(k))
        done;
        b.(row) <- b.(row) -. (factor *. b.(col))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let s = ref b.(row) in
    for k = row + 1 to n - 1 do
      s := !s -. (a.(row).(k) *. x.(k))
    done;
    x.(row) <- !s /. a.(row).(row)
  done;
  x
