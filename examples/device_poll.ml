(* The paper's volatile example (§1): low-level operating-system code that
   busy-waits on a status register.

       keyboard_status = 0;
       while (!keyboard_status);

   Without `volatile`, this looks like an infinite loop and optimizers
   would be entitled to fold it; with `volatile`, every phase of the
   compiler leaves the re-reads alone.  This example compiles the loop at
   full optimization and runs it under the interpreter with a hook that
   models the device flipping the register after a few reads.

     dune exec examples/device_poll.exe *)

let source = Sources.device_poll

let () =
  let prog, _ = Vpc.compile ~options:Vpc.o3 source in
  print_endline "=== wait_for_key at -O3: the volatile loop survives ===";
  print_string
    (Vpc.Il.Pp.func_to_string prog (Vpc.Il.Prog.func_exn prog "wait_for_key"));
  (* the "device": raises the key code on the 5th read *)
  let reads = ref 0 in
  let device (v : Vpc.Il.Var.t) =
    if v.name = "keyboard_status" then begin
      incr reads;
      Some (if !reads >= 5 then Vpc.Il.Interp.V_int 42 else Vpc.Il.Interp.V_int 0)
    end
    else None
  in
  let result = Vpc.Il.Interp.run ~on_volatile_read:device prog in
  Printf.printf "\n=== run with a simulated device ===\n%s" result.stdout_text;
  Printf.printf "(the register was read %d times)\n" !reads
