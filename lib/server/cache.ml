(* The content-addressed procedure cache.

   Entries are keyed by a hex digest computed in {!Service}: the key
   covers a component's member fingerprints plus every input the
   optimizer can observe (option set, struct and global sections,
   catalog and profile bytes).  Because the key is exhaustive, lookup
   needs no validation — a hit is correct by construction, and
   invalidation is free: an edit changes the key, the stale entry is
   simply never asked for again.

   The store is two-level: an in-memory table (shared by all pipeline
   domains, mutex-guarded) in front of an optional on-disk directory of
   one sexp file per entry.  Disk writes go through a temp file and
   [Sys.rename] so a crashed or concurrent writer can never leave a
   half-written entry behind; both sides of a racing double-store write
   the same bytes, so either rename order is fine. *)

open Vpc_support

type func_entry = {
  fe_name : string;
  fe_dump : string;  (* printed IL text, byte-exact piece of prog_to_string *)
  fe_asm : string;   (* Titan assembly text, byte-exact pp_func output *)
}

type entry = {
  key : string;
  funcs : func_entry list;  (* component members, name-sorted *)
}

type t = {
  dir : string option;
  mem : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
}

let create ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | _ -> ());
  {
    dir;
    mem = Hashtbl.create 64;
    lock = Mutex.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
  }

(* Serialization ---------------------------------------------------------- *)

let entry_to_sexp (e : entry) =
  let open Sexp in
  let fe (f : func_entry) =
    list [ atom f.fe_name; atom f.fe_dump; atom f.fe_asm ]
  in
  list [ atom "entry"; atom e.key; list (List.map fe e.funcs) ]

let entry_of_sexp s =
  let open Sexp in
  match s with
  | List [ Atom "entry"; Atom key; List funcs ] ->
      let fe = function
        | List [ Atom n; Atom d; Atom a ] ->
            { fe_name = n; fe_dump = d; fe_asm = a }
        | _ -> raise (Parse_error "cache entry: bad function record")
      in
      { key; funcs = List.map fe funcs }
  | _ -> raise (Parse_error "cache entry: bad shape")

(* Persistence ------------------------------------------------------------ *)

let path_of dir key = Filename.concat dir (key ^ ".ent")

let write_file dir (e : entry) =
  let final = path_of dir e.key in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".%s.%d.tmp" e.key (Unix.getpid ()))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Sexp.to_string (entry_to_sexp e)));
  Sys.rename tmp final

let read_file dir key =
  let p = path_of dir key in
  if not (Sys.file_exists p) then None
  else
    let ic = open_in_bin p in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match entry_of_sexp (Sexp.of_string content) with
    | e when e.key = key -> Some e
    | _ -> None
    | exception Sexp.Parse_error _ -> None

(* Operations ------------------------------------------------------------- *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key : entry option =
  let in_mem = locked t (fun () -> Hashtbl.find_opt t.mem key) in
  match in_mem with
  | Some _ as r ->
      Atomic.incr t.hits;
      r
  | None -> (
      match Option.bind t.dir (fun d -> read_file d key) with
      | Some e ->
          locked t (fun () ->
              if not (Hashtbl.mem t.mem key) then Hashtbl.replace t.mem key e);
          Atomic.incr t.hits;
          Some e
      | None ->
          Atomic.incr t.misses;
          None)

let store t (e : entry) =
  locked t (fun () -> Hashtbl.replace t.mem e.key e);
  Atomic.incr t.stores;
  Option.iter (fun d -> write_file d e) t.dir

type stats = { s_hits : int; s_misses : int; s_stores : int; s_entries : int }

let stats t =
  {
    s_hits = Atomic.get t.hits;
    s_misses = Atomic.get t.misses;
    s_stores = Atomic.get t.stores;
    s_entries = locked t (fun () -> Hashtbl.length t.mem);
  }

let reset_counters t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.stores 0
