(* The compile daemon: a Unix-domain socket accept loop in front of one
   shared {!Cache}.

   Connections are handled one request at a time — the daemon's job is
   to keep the cache warm across requests from short-lived clients;
   intra-batch parallelism lives in {!Service.compile_batch}, which
   in-process callers (the bench driver, tests) use directly.  Each
   served request logs one line to stderr with the per-phase wall-time
   profile, the same buckets [--timings] prints. *)

open Vpc_support

type config = {
  socket_path : string;
  verbose : bool;  (* per-request log lines on stderr *)
}

let handle_conn cache (config : config) fd : [ `Continue | `Stop ] =
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let reply msg = Protocol.write_frame oc (Sexp.to_string (Protocol.server_to_sexp msg)) in
  match Protocol.client_of_sexp (Sexp.of_string (Protocol.read_frame ic)) with
  | exception Sexp.Parse_error m ->
      (* a malformed request (unknown flag, vlen below 1) is refused,
         and the daemon serves on *)
      reply (Protocol.Error ("parse error: " ^ m));
      `Continue
  | Protocol.Stats ->
      reply (Protocol.Stats_reply (Cache.stats cache));
      `Continue
  | Protocol.Shutdown ->
      reply Protocol.Bye;
      `Stop
  | Protocol.Compile req ->
      let timer = Timing.create () in
      let t0 = Unix.gettimeofday () in
      (try
         let res = Service.compile ~timer cache req in
         let ms = (Unix.gettimeofday () -. t0) *. 1000. in
         if config.verbose then begin
           let phases =
             Timing.phases timer
             |> List.map (fun (name, s) ->
                    Printf.sprintf "%s=%.1fms" name (s *. 1000.))
             |> String.concat " "
           in
           Printf.eprintf
             "[serve] %s: %d funcs, %d/%d components cached, %.1f ms (%s)\n%!"
             req.Service.req_file res.Service.res_funcs
             res.Service.res_cached res.Service.res_components ms phases
         end;
         reply (Protocol.Compiled res)
       with
      | Diag.Error_exn d -> reply (Protocol.Error (Diag.to_string d))
      | Sexp.Parse_error m -> reply (Protocol.Error ("parse error: " ^ m))
      | Sys_error m -> reply (Protocol.Error m));
      `Continue

let serve (config : config) (cache : Cache.t) =
  (* a client that disconnects mid-reply must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX config.socket_path);
  Unix.listen sock 16;
  if config.verbose then
    Printf.eprintf "[serve] listening on %s\n%!" config.socket_path;
  let rec loop () =
    let fd, _ = Unix.accept sock in
    let verdict =
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try handle_conn cache config fd with
          | End_of_file | Sexp.Parse_error _ | Failure _ -> `Continue
          | Unix.Unix_error _ -> `Continue)
    in
    match verdict with `Continue -> loop () | `Stop -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      if Sys.file_exists config.socket_path then Sys.remove config.socket_path)
    loop;
  if config.verbose then begin
    let s = Cache.stats cache in
    Printf.eprintf
      "[serve] shutdown: %d hits, %d misses, %d entries\n%!"
      s.Cache.s_hits s.Cache.s_misses s.Cache.s_entries
  end
