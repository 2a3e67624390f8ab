(* Minimal JSON — hand-rolled because the container has no json library.
   One shared implementation at the bottom of the dependency graph so
   that the event bus ([Er_core.Events]), the pipeline result renderer,
   the metrics registry ([Er_metrics]) and the bench harness all speak
   the same dialect.  [Er_core.Json] re-exports this module.

   Covers exactly what those clients need: the seven JSON value forms,
   a compact serializer whose float output round-trips every finite
   double, and a strict recursive-descent parser that returns [None] on
   any malformation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | c when Char.code c < 0x20 ->
           Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f ->
      (* %.17g round-trips every finite double and stays a JSON number *)
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%.17g" f
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) fields)
      ^ "}"

(* recursive-descent parser; returns None on any malformation *)
exception Bad

let parse (s : string) : t option =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else raise Bad
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else raise Bad
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise Bad;
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then raise Bad);
          (match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
               if !pos + 4 >= n then raise Bad;
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex) with _ -> raise Bad
               in
               (* producers only escape control chars, so < 0x80 suffices *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else raise Bad;
               pos := !pos + 4
           | _ -> raise Bad);
          advance ();
          go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> raise Bad)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> raise Bad
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> raise Bad
          in
          List (elems [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> raise Bad
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos = n then Some v else None
  with Bad | Invalid_argument _ -> None

(* --- small accessors shared by consumers of parsed documents ------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
