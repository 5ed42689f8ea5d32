type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- writing --- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Stable, compact float image; integral values keep a ".0" marker so
   they round-trip as floats, and non-finite values (illegal in JSON)
   degrade to null.  The image is value-exact: start from the short
   %.12g form and add significant digits only when parsing the image
   back would not reproduce the float — the run store relies on
   serialized results decoding bit-identically. *)
let float_image f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s
      else
        (* %.17g prints an integral float below 1e17 with neither a
           '.' nor an exponent, which would read back as an [Int]. *)
        let s = Printf.sprintf "%.17g" f in
        if Float.is_integer f && Float.abs f < 1e17 then s ^ ".0" else s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (float_image f)
      else Buffer.add_string b "null"
  | String s -> escape b s
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let rec pp ppf = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v ->
      Format.pp_print_string ppf (to_string v)
  | List [] -> Format.pp_print_string ppf "[]"
  | List xs ->
      Format.fprintf ppf "@[<v 2>[";
      List.iteri
        (fun i x -> Format.fprintf ppf "%s@,%a" (if i > 0 then "," else "") pp x)
        xs;
      Format.fprintf ppf "@]@,]"
  | Obj [] -> Format.pp_print_string ppf "{}"
  | Obj fields ->
      Format.fprintf ppf "@[<v 2>{";
      List.iteri
        (fun i (k, v) ->
          Format.fprintf ppf "%s@,%s: %a"
            (if i > 0 then "," else "")
            (to_string (String k))
            pp v)
        fields;
      Format.fprintf ppf "@]@,}"

let to_channel oc v =
  let ppf = Format.formatter_of_out_channel oc in
  Format.fprintf ppf "%a@." pp v

let write_file ~path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc v)

let write_line oc v =
  output_string oc (to_string v);
  output_char oc '\n'

(* --- parsing: a recursive-descent reader over a cursor --- *)

(* [peek] reads the NUL byte past the end of input, so the reader tests
   one byte at a time without allocating; where a NUL may be real input,
   [pos < len] tells the two apart. *)
type cursor = { src : string; len : int; mutable pos : int }

exception Parse_error of int * string

let error c msg = raise (Parse_error (c.pos, msg))
let peek c = if c.pos < c.len then String.unsafe_get c.src c.pos else '\000'

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
      c.pos <- c.pos + 1;
      skip_ws c
  | _ -> ()

let expect c ch = if peek c = ch then c.pos <- c.pos + 1 else error c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  let rec matches i = i = n || (String.unsafe_get c.src (c.pos + i) = word.[i] && matches (i + 1)) in
  if c.pos + n <= c.len && matches 0 then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

let add_utf8 b code =
  let byte x = Buffer.add_char b (Char.chr x) in
  let cont shift = byte (0x80 lor ((code lsr shift) land 0x3F)) in
  if code < 0x80 then byte code
  else if code < 0x800 then (byte (0xC0 lor (code lsr 6)); cont 0)
  else if code < 0x10000 then (byte (0xE0 lor (code lsr 12)); cont 6; cont 0)
  else (byte (0xF0 lor (code lsr 18)); cont 12; cont 6; cont 0)

(* The code unit of the four hex digits after the 'u' at [at]. *)
let hex4 c at = int_of_string_opt ("0x" ^ String.sub c.src (at + 1) 4)

(* [c.pos] is on the 'u' of a \u escape.  A high surrogate must be
   followed at once by an escaped low one; together they name one code
   point above the BMP.  A lone surrogate is an error at its own 'u'. *)
let parse_u_escape c b =
  if c.pos + 5 > c.len then error c "truncated \\u escape";
  match hex4 c c.pos with
  | None -> error c "bad \\u escape"
  | Some code when code >= 0xD800 && code < 0xDC00 -> (
      let low =
        if c.pos + 11 <= c.len && c.src.[c.pos + 5] = '\\' && c.src.[c.pos + 6] = 'u' then
          hex4 c (c.pos + 6)
        else None
      in
      match low with
      | Some low when low >= 0xDC00 && low < 0xE000 ->
          add_utf8 b (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00));
          c.pos <- c.pos + 11
      | _ -> error c "bad \\u escape")
  | Some code when code >= 0xDC00 && code < 0xE000 -> error c "bad \\u escape"
  | Some code ->
      add_utf8 b code;
      c.pos <- c.pos + 5

(* Index of the first '"' or '\\' at or after [i]. *)
let rec string_stop c i =
  if i >= c.len then begin
    c.pos <- i;
    error c "unterminated string"
  end
  else match String.unsafe_get c.src i with '"' | '\\' -> i | _ -> string_stop c (i + 1)

(* [c.pos] is just past a backslash: decode one escape into [b]. *)
let add_escape c b =
  match peek c with
  | 'u' -> parse_u_escape c b
  | ch ->
      let decoded =
        match ch with
        | '"' | '\\' | '/' -> ch
        | 'n' -> '\n'
        | 'r' -> '\r'
        | 't' -> '\t'
        | 'b' -> '\b'
        | 'f' -> '\012'
        | _ -> error c "bad escape"
      in
      Buffer.add_char b decoded;
      c.pos <- c.pos + 1

(* The rest of a string from [c.pos], appended to [b]. *)
let rec string_rest c b =
  let start = c.pos in
  let stop = string_stop c start in
  Buffer.add_substring b c.src start (stop - start);
  c.pos <- stop + 1;
  if String.unsafe_get c.src stop = '"' then Buffer.contents b
  else begin
    add_escape c b;
    string_rest c b
  end

(* A string without escapes is one [String.sub]; the buffer is only
   built once a backslash turns up. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let stop = string_stop c start in
  if String.unsafe_get c.src stop = '"' then begin
    c.pos <- stop + 1;
    String.sub c.src start (stop - start)
  end
  else string_rest c (Buffer.create (stop - start + 16))

let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* A number lexeme is the longest run of [is_num_char] bytes.  One of
   the form -?[0-9]{1,18} always fits an [int] and is read in place;
   every other lexeme goes through the standard conversions. *)
let parse_number c =
  let start = c.pos in
  let negative = peek c = '-' in
  if negative then c.pos <- c.pos + 1;
  let digits_from = c.pos in
  let acc = ref 0 in
  while
    match peek c with
    | '0' .. '9' as d ->
        acc := (!acc * 10) + (Char.code d - Char.code '0');
        true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  let digits = c.pos - digits_from in
  if digits >= 1 && digits <= 18 && not (is_num_char (peek c)) then
    Int (if negative then - !acc else !acc)
  else begin
    while is_num_char (peek c) do
      c.pos <- c.pos + 1
    done;
    let lexeme = String.sub c.src start (c.pos - start) in
    let integral = not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lexeme) in
    match if integral then int_of_string_opt lexeme else None with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lexeme with
        | Some f -> Float f
        | None -> error c "bad number")
  end

let rec parse_value c =
  skip_ws c;
  match peek c with
  | '\000' when c.pos >= c.len -> error c "unexpected end of input"
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (parse_string c)
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while peek c = ',' do
          c.pos <- c.pos + 1;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect c ']';
        List (List.rev !items)
      end
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          (k, parse_value c)
        in
        let fields = ref [ field () ] in
        skip_ws c;
        while peek c = ',' do
          c.pos <- c.pos + 1;
          fields := field () :: !fields;
          skip_ws c
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | '-' | '0' .. '9' -> parse_number c
  | ch -> error c (Printf.sprintf "unexpected %C" ch)

let of_string s =
  let c = { src = s; len = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.len then error c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at offset %d: %s" pos msg)

let read_file ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      of_string s

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
