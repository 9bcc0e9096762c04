(* SA006 negative: catch-alls that keep Abort/Injected flowing. *)

(* Abort passes through; everything else is deliberately contained. *)
let guard f =
  try f () with
  | Fp_core.Augment.Abort as e -> raise e
  | exn ->
    ignore exn;
    None

(* A catch-all whose body re-raises swallows nothing. *)
let cleanup f close =
  try f ()
  with e ->
    close ();
    raise e
