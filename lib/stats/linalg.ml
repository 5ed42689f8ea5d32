let check_square a b =
  let n = Array.length a in
  if n = 0 then invalid_arg "Linalg: empty system";
  if Array.length b <> n then invalid_arg "Linalg: rhs length mismatch";
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Linalg: non-square matrix") a;
  n

(* Gaussian elimination with partial pivoting, confined to the band
   that holds the non-zeros.  The copy measures the lower bandwidth [lo]
   and upper bandwidth [up].  Below the band an entry is zero and stays
   so: no row below [col + lo] can win the pivot or needs eliminating.
   Row swaps widen the upper band to at most [lo + up].  Every operation
   of the full loops outside these limits subtracts a zero product, so
   on finite input the result has the same bits, save possibly the sign
   of a component that is exactly zero.  A dense matrix has
   [lo = n - 1] and runs the full loops. *)
let solve a b =
  let n = check_square a b in
  let lo = ref 0 and up = ref 0 in
  let a =
    Array.mapi
      (fun i row ->
        for j = 0 to n - 1 do
          if row.(j) <> 0.0 then begin
            if i - j > !lo then lo := i - j;
            if j - i > !up then up := j - i
          end
        done;
        Array.copy row)
      a
  in
  let lo = !lo in
  let width = Int.min (n - 1) (lo + !up) in
  let b = Array.copy b in
  for col = 0 to n - 1 do
    let last = Int.min (n - 1) (col + lo) in
    let right = Int.min (n - 1) (col + width) in
    (* Partial pivoting. *)
    let pivot = ref col in
    for row = col + 1 to last do
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
    for row = col + 1 to last do
      let factor = a.(row).(col) /. a.(col).(col) in
      if factor <> 0.0 then begin
        for k = col to right do
          a.(row).(k) <- a.(row).(k) -. (factor *. a.(col).(k))
        done;
        b.(row) <- b.(row) -. (factor *. b.(col))
      end
    done
  done;
  let x = Array.make n 0.0 in
  for row = n - 1 downto 0 do
    let s = ref b.(row) in
    for k = row + 1 to Int.min (n - 1) (row + width) do
      s := !s -. (a.(row).(k) *. x.(k))
    done;
    x.(row) <- !s /. a.(row).(row)
  done;
  x

let mat_vec a x =
  Array.map
    (fun row ->
      let s = ref 0.0 in
      Array.iteri (fun j v -> s := !s +. (v *. x.(j))) row;
      !s)
    a

let residual_norm a x b =
  let ax = mat_vec a x in
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i)))) ax;
  !worst
