(* A waiter is "live" while its resumer is pending AND it has not timed
   out. [timed_out] distinguishes a waiter abandoned by its timeout from
   one cancelled by a group kill; both are skipped by senders. A timed
   receive arms a cancellable engine timer; delivery (or skipping a dead
   waiter) cancels it so the timeout closure does not linger in the
   event queue. *)
type 'a waiter = {
  resume : 'a option Fiber.resumer;
  mutable timed_out : bool;
  mutable cancel_timeout : unit -> unit;
}

let no_timeout () = ()

type 'a t = {
  eng : Engine.t;
  items : 'a Ring.t;
  pending : 'a waiter Ring.t;
  mutable timeout : float;  (* of the receive now suspending, < 0 = none *)
}

let create eng =
  { eng; items = Ring.create (); pending = Ring.create (); timeout = -1.0 }

let live w = (not w.timed_out) && Fiber.is_pending w.resume

(* Pop the next waiter still worth delivering to. *)
let rec next_waiter t =
  match Ring.pop_opt t.pending with
  | None -> None
  | Some w ->
      if live w then Some w
      else begin
        w.cancel_timeout ();
        next_waiter t
      end

let send t v =
  match next_waiter t with
  | Some w ->
      w.cancel_timeout ();
      Fiber.resume w.resume (Ok (Some v))
  | None -> Ring.push t.items v

let try_recv t = Ring.pop_opt t.items

(* The [Fiber.suspend_with] registration: queue the receiver and arm
   its timeout, if it has one. *)
let enqueue t resume =
  let w = { resume; timed_out = false; cancel_timeout = no_timeout } in
  Ring.push t.pending w;
  let d = t.timeout in
  if d >= 0.0 then
    w.cancel_timeout <-
      Engine.schedule_timer t.eng ~delay:d (fun () ->
          if live w then begin
            w.timed_out <- true;
            Fiber.resume w.resume (Ok None)
          end)

(* [timeout] < 0 waits without one *)
let recv_opt t ~timeout =
  match Ring.pop_opt t.items with
  | Some v -> Some v
  | None ->
      t.timeout <- timeout;
      Fiber.suspend_with enqueue t

let recv t =
  match recv_opt t ~timeout:(-1.0) with
  | Some v -> v
  | None -> assert false (* no timeout was armed *)

let recv_timeout t d =
  if d < 0.0 then invalid_arg "Mailbox.recv_timeout: negative timeout";
  recv_opt t ~timeout:d

let length t = Ring.length t.items

let waiters t =
  Ring.fold (fun acc w -> if live w then acc + 1 else acc) 0 t.pending

let clear t = Ring.clear t.items
