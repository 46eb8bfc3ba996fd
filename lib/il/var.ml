(* IL variables.  Statements and expressions refer to variables by integer
   id only — the IL carries no hard pointers so that procedures can be
   paged and saved into catalogs (paper §7).  Metadata lives in per-program
   / per-function tables keyed by id. *)

open Vpc_support

type storage =
  | Auto    (* function local *)
  | Param   (* formal parameter *)
  | Static  (* function- or file-scope static *)
  | Global  (* external linkage *)
  | Extern  (* declared here, defined elsewhere *)

type t = {
  id : int;
  name : string;
  ty : Ty.t;
  volatile : bool;
  storage : storage;
  is_temp : bool;  (* compiler-generated temporary *)
}

let make ~id ~name ~ty ?(volatile = false) ?(storage = Auto) ?(is_temp = false)
    () =
  { id; name; ty; volatile; storage; is_temp }

(* A variable of aggregate type is a memory object: its value is never held
   in a register and all accesses go through its address. *)
let is_memory_object v =
  match v.ty with Array _ | Struct _ -> true | Void | Char | Int | Float | Double | Ptr _ | Func _ -> false

let is_global v =
  match v.storage with Global | Extern | Static -> true | Auto | Param -> false

let storage_to_string = function
  | Auto -> "auto"
  | Param -> "param"
  | Static -> "static"
  | Global -> "global"
  | Extern -> "extern"

let storage_of_string = function
  | "auto" -> Auto
  | "param" -> Param
  | "static" -> Static
  | "global" -> Global
  | "extern" -> Extern
  | s -> raise (Sexp.Parse_error ("unknown storage " ^ s))

(* A variable id as the serializer writes it: the number itself, or
   under a naming function the name it gives. *)
let id_to_sexp ?name id =
  match name with None -> Sexp.int id | Some name -> Sexp.atom (name id)

let to_sexp ?name v =
  Sexp.list
    [
      id_to_sexp ?name v.id;
      Sexp.atom v.name;
      Ty.to_sexp v.ty;
      Sexp.atom (storage_to_string v.storage);
      Sexp.bool v.volatile;
      Sexp.bool v.is_temp;
    ]

let of_sexp s =
  match Sexp.as_list s with
  | [ id; name; ty; storage; volatile; is_temp ] ->
      {
        id = Sexp.as_int id;
        name = Sexp.as_atom name;
        ty = Ty.of_sexp ty;
        storage = storage_of_string (Sexp.as_atom storage);
        volatile = Sexp.as_bool volatile;
        is_temp = Sexp.as_bool is_temp;
      }
  | _ -> raise (Sexp.Parse_error "bad var sexp")
