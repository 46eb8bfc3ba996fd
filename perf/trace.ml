(* In-memory spans for the traced run.

   A span covers one call into a layer: a name, wall-clock start and
   end, the span that was open when it started, and the request it
   belongs to (0 outside the timed requests).  Timer buckets and
   counters observed inside a span are attached to it as attributes.
   Spans are kept in memory and written as JSON lines when the run ends,
   so writing costs nothing while the run is measured. *)

type span = {
  id : int;
  parent : int option;
  req : int;
  name : string;
  t0 : float;
  mutable t1 : float;
  mutable attrs : (string * float) list;
}

type t = {
  mutable spans : span list;  (* finished, newest first *)
  mutable stack : span list;  (* open, innermost first *)
  mutable next_id : int;
  mutable req : int;
}

let create () = { spans = []; stack = []; next_id = 1; req = 0 }

(* Spans opened until the next [set_request] belong to request [r]. *)
let set_request t r = Option.iter (fun t -> t.req <- r) t

(* [with_span t name f]: [f ()], recorded as a span when tracing. *)
let with_span t name f =
  match t with
  | None -> f ()
  | Some t ->
      let s =
        {
          id = t.next_id;
          parent = (match t.stack with p :: _ -> Some p.id | [] -> None);
          req = t.req;
          name;
          t0 = Unix.gettimeofday ();
          t1 = nan;
          attrs = [];
        }
      in
      t.next_id <- t.next_id + 1;
      t.stack <- s :: t.stack;
      Fun.protect
        ~finally:(fun () ->
          s.t1 <- Unix.gettimeofday ();
          t.stack <- List.tl t.stack;
          t.spans <- s :: t.spans)
        f

(* Attach [k = v] to the innermost open span. *)
let attr t k v =
  match t with
  | Some { stack = s :: _; _ } -> s.attrs <- (k, v) :: s.attrs
  | _ -> ()

let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of it its children
   cover. *)
let self_time children (s : span) =
  (s.t1 -. s.t0)
  -. covered ~lo:s.t0 ~hi:s.t1
       (List.map (fun (c : span) -> (c.t0, c.t1)) children)

(* Total self time per span name, in first-seen order. *)
let self_times (spans : span list) : (string * float) list =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      Option.iter (fun p -> Hashtbl.add kids p s) s.parent)
    spans;
  let order = ref [] and totals = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let st = self_time (Hashtbl.find_all kids s.id) s in
      match Hashtbl.find_opt totals s.name with
      | Some r -> r := !r +. st
      | None ->
          order := s.name :: !order;
          Hashtbl.replace totals s.name (ref st))
    spans;
  List.rev_map (fun n -> (n, !(Hashtbl.find totals n))) !order

let to_json (s : span) =
  Json.Obj
    [
      ("id", Json.Num (float_of_int s.id));
      ("parent", match s.parent with Some p -> Json.Num (float_of_int p) | None -> Json.Null);
      ("req", Json.Num (float_of_int s.req));
      ("name", Json.Str s.name);
      ("start", Json.Num s.t0);
      ("end", Json.Num s.t1);
      ("attrs", Json.Obj (List.rev_map (fun (k, v) -> (k, Json.Num v)) s.attrs));
    ]

(* One JSON object per line, by span id. *)
let to_jsonl t =
  String.concat "" (List.map (fun s -> Json.to_string (to_json s) ^ "\n") (spans t))
