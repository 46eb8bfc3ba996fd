(* A minimal s-expression reader/writer used for the pointer-free procedure
   catalogs (paper §7: the IL must be saved "in an easily accessible form").
   Atoms are printed bare when possible and quoted otherwise. *)

type t =
  | Atom of string
  | List of t list

let atom s = Atom s
let list l = List l
let int n = Atom (string_of_int n)
let float f = Atom (Printf.sprintf "%h" f)
let bool b = Atom (if b then "true" else "false")

exception Parse_error of string

let needs_quoting s =
  s = ""
  || String.exists
       (fun c ->
         match c with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | '\\' | ';' -> true
         | _ -> false)
       s

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* One flat line: lists are parenthesized, elements separated by one
   space.  Every reader skips whitespace, so no layout is needed. *)
let to_string t =
  let buf = Buffer.create 256 in
  let rec go = function
    | Atom s -> if needs_quoting s then add_quoted buf s else Buffer.add_string buf s
    | List l ->
        Buffer.add_char buf '(';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ' ';
            go x)
          l;
        Buffer.add_char buf ')'
  in
  go t;
  Buffer.contents buf

(* Parsing *)

type parser_state = { input : string; mutable pos : int }

let peek_char st =
  if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek_char st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | Some ';' ->
      (* comment to end of line *)
      let rec skip () =
        match peek_char st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            skip ()
      in
      skip ();
      skip_ws st
  | Some _ | None -> ()

let parse_quoted st =
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char st with
    | None -> raise (Parse_error "unterminated string")
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek_char st with
        | Some 'n' ->
            Buffer.add_char buf '\n';
            advance st;
            go ()
        | Some 't' ->
            Buffer.add_char buf '\t';
            advance st;
            go ()
        | Some c ->
            Buffer.add_char buf c;
            advance st;
            go ()
        | None -> raise (Parse_error "unterminated escape"))
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Atom (Buffer.contents buf)

let parse_bare st =
  let start = st.pos in
  let rec go () =
    match peek_char st with
    | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';') | None -> ()
    | Some _ ->
        advance st;
        go ()
  in
  go ();
  Atom (String.sub st.input start (st.pos - start))

let rec parse_one st =
  skip_ws st;
  match peek_char st with
  | None -> raise (Parse_error "unexpected end of input")
  | Some '(' ->
      advance st;
      let items = ref [] in
      let rec go () =
        skip_ws st;
        match peek_char st with
        | Some ')' -> advance st
        | None -> raise (Parse_error "unterminated list")
        | Some _ ->
            items := parse_one st :: !items;
            go ()
      in
      go ();
      List (List.rev !items)
  | Some ')' -> raise (Parse_error "unexpected ')'")
  | Some '"' -> parse_quoted st
  | Some _ -> parse_bare st

let of_string s =
  let st = { input = s; pos = 0 } in
  let t = parse_one st in
  skip_ws st;
  (match peek_char st with
  | None -> ()
  | Some _ -> raise (Parse_error "trailing garbage"));
  t

(* Accessors used by decoders. *)

let as_atom = function
  | Atom s -> s
  | List _ -> raise (Parse_error "expected atom")

let as_list = function
  | List l -> l
  | Atom a -> raise (Parse_error ("expected list, got atom " ^ a))

let as_int t =
  let s = as_atom t in
  match int_of_string_opt s with
  | Some n -> n
  | None -> raise (Parse_error ("expected int, got " ^ s))

let as_float t =
  let s = as_atom t in
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Parse_error ("expected float, got " ^ s))

let as_bool t =
  match as_atom t with
  | "true" -> true
  | "false" -> false
  | s -> raise (Parse_error ("expected bool, got " ^ s))
