exception Cancelled

(* One blocked fiber is one [Blocked] record: the captured
   continuation, the fiber it belongs to, its group registration and
   the result it will be woken with. The engine queues the record
   itself ([Engine.schedule_apply]), and the group's kill table stores
   it unwrapped, so blocking allocates no closure and no box of its
   own. The table also holds [Group.register] hooks, which is why a
   hook is a [resumer] too; no hook is ever handed out as one.

   [reg] is the whole wake state: [unregistered] while pending outside
   any group (or while being set up), a kill-table id (>= 0) while
   pending inside a live group, [fired] once woken or cancelled. *)
type 'a resumer =
  | Blocked of {
      k : ('a, unit) Effect.Deep.continuation;
      fib : fiber;
      mutable reg : int;
      mutable result : ('a, exn) result;
    }
  | Hook of (unit -> unit)

and fiber = {
  eng : Engine.t;
  group : group option;
  (* the duration of the [Sleep] being handled: the [Sleep] handler is
     built once per spawn, so its payload reaches it through here *)
  mutable delay : float;
}

and group = {
  mutable killed : bool;
  cancels : (int, entry) Hashtbl.t;
  mutable next_id : int;
}

and entry = Entry : 'a resumer -> entry [@@unboxed]

let unregistered = -1
let fired = -2

let cancelled = Error Cancelled
let ok_unit = Ok ()

let deliver = function
  | Blocked { k; result = Ok v; _ } -> Effect.Deep.continue k v
  | Blocked { k; result = Error e; _ } -> Effect.Deep.discontinue k e
  | Hook _ -> ()

let unregister g id = Hashtbl.remove g.cancels id

(* Waking goes through the same-instant ring, never inline, preserving
   run-to-completion semantics of the current event. *)
let resume r result =
  match r with
  | Blocked b when b.reg <> fired ->
      let id = b.reg in
      b.reg <- fired;
      b.result <- result;
      (if id >= 0 then
         match b.fib.group with Some g -> unregister g id | None -> ());
      Engine.schedule_apply b.fib.eng ~delay:0.0 deliver r
  | Blocked _ | Hook _ -> ()

let is_pending = function Blocked b -> b.reg <> fired | Hook _ -> false

module Group = struct
  type t = group

  let create () = { killed = false; cancels = Hashtbl.create 16; next_id = 0 }

  let killed t = t.killed

  let kill t =
    if not t.killed then begin
      t.killed <- true;
      let pending = Hashtbl.fold (fun _ e acc -> e :: acc) t.cancels [] in
      Hashtbl.reset t.cancels;
      List.iter
        (fun (Entry r) ->
          match r with Hook hook -> hook () | Blocked _ -> resume r cancelled)
        pending
    end

  let add t r =
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.replace t.cancels id (Entry r);
    id

  let register t hook = add t (Hook hook)

  let unregister = unregister
end

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Suspend : ('a resumer -> unit) -> 'a Effect.t
  | Context : fiber Effect.t

let default_on_exn name exn =
  Format.eprintf "[camelot_sim] fiber %s died: %s@." name (Printexc.to_string exn)

(* Capture [k] as a pending resumer, joined to the fiber's group; on an
   already-killed group it is cancelled at once. *)
let block fib k =
  let r = Blocked { k; fib; reg = unregistered; result = cancelled } in
  (match (r, fib.group) with
  | Blocked b, Some g when not g.killed -> b.reg <- Group.add g r
  | _, Some _ -> resume r cancelled
  | _, None -> ());
  r

(* A sleep is a timed event that wakes the resumer, followed by the
   usual wake hop through the same-instant ring: the second hop is what
   gives the woken fiber its [(time, seq)] slot among the other events
   of that instant, so it is kept even though the timer could continue
   the fiber directly. A resumer already cancelled by a kill ignores
   its timer. *)
let wake_sleeper r = resume r ok_unit

let spawn eng ?group ?(name = "fiber") ?on_exn fn =
  let on_exn = match on_exn with Some f -> f | None -> default_on_exn name in
  let fib = { eng; group; delay = 0.0 } in
  let on_sleep =
    Some
      (fun k ->
        Engine.schedule_apply eng ~delay:fib.delay wake_sleeper (block fib k))
  in
  let on_context = Some (fun k -> Effect.Deep.continue k fib) in
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc =
        (fun e -> match e with Cancelled -> () | e -> on_exn e);
      effc =
        (fun (type b) (eff : b Effect.t) :
             ((b, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Sleep d ->
              fib.delay <- d;
              on_sleep
          | Suspend register ->
              Some (fun k -> register (block fib k))
          | Context -> on_context
          | _ -> None);
    }
  in
  Engine.schedule eng ~delay:0.0 (fun () ->
      match group with
      | Some g when g.killed -> ()
      | Some _ | None -> Effect.Deep.match_with fn () handler)

let run eng fn =
  let result = ref None in
  spawn eng ~name:"main"
    ~on_exn:(fun e -> result := Some (Error e))
    (fun () -> result := Some (Ok (fn ())));
  (* step until the main fiber completes: background fibers (flushers,
     watchdogs) may keep the queue non-empty forever *)
  while Option.is_none !result && Engine.step eng do
    ()
  done;
  match !result with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> failwith "Fiber.run: main fiber blocked forever (deadlock)"

let sleep d = Effect.perform (Sleep d)

let yield () = sleep 0.0

let engine () = (Effect.perform Context).eng

let now () = Engine.now (engine ())

let suspend register = Effect.perform (Suspend register)
