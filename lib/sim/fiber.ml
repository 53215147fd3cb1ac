exception Cancelled

(* One blocked fiber is one [Blocked] record: the captured
   continuation, the fiber it belongs to, its kill-table slot and the
   result it will be woken with. The engine queues the record itself
   ([Engine.schedule_apply]), and the group's kill table stores it
   unwrapped, so blocking allocates no closure and no box of its own.
   The table also holds [Group.register] hooks, which is why a hook is
   a [resumer] too; no hook is ever handed out as one.

   [reg] is the whole wake state: [unregistered] while pending outside
   any group (or while being set up), a kill-table slot (>= 0) while
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
  (* the payloads of the [Sleep] or [Suspend] being handled: both
     handlers are built once per spawn, so their payloads reach them
     through here; [register] and [register_arg] are reset once read
     so they retain nothing *)
  mutable delay : float;
  mutable register : Obj.t -> Obj.t resumer -> unit;
  mutable register_arg : Obj.t;
}

(* The kill table is a dense slot array: registering takes a free slot
   and unregistering vacates it, both O(1) stores with no hashing and
   no cell. Each live slot also holds its entry's id, drawn from a
   per-group counter, and [Group.kill] cancels in the order the
   id-keyed [Hashtbl] this replaces would have: that table's
   [fold]-then-cons visited buckets from last to first and, within a
   bucket, ids in ascending order (new keys go to the bucket head,
   resizes keep bucket order). So [buckets] tracks that table's size,
   following Stdlib's rule: 16 to start, doubled whenever
   [live > 2 * buckets] after an insert, never shrunk; the kill sorts
   the live entries by [Hashtbl.hash id land (buckets - 1)] descending,
   then id ascending. A vacant slot holds [vacant] and, in [ids], the
   free list: [-2 - next] with [next = -1] at its end. *)
and group = {
  mutable killed : bool;
  mutable entries : entry array;
  mutable ids : int array;
  mutable free : int;  (* first free slot, -1 = table full *)
  mutable live : int;
  mutable buckets : int;
  mutable next_id : int;
}

and entry = Entry : 'a resumer -> entry [@@unboxed]

let unregistered = -1
let fired = -2

let cancelled = Error Cancelled
let ok_unit = Ok ()

let no_register (_ : Obj.t) (_ : Obj.t resumer) = ()
let no_arg = Obj.repr ()

let vacant = Entry (Hook ignore)

let deliver = function
  | Blocked { k; result = Ok v; _ } -> Effect.Deep.continue k v
  | Blocked { k; result = Error e; _ } -> Effect.Deep.discontinue k e
  | Hook _ -> ()

let vacate g slot =
  g.entries.(slot) <- vacant;
  g.ids.(slot) <- -2 - g.free;
  g.free <- slot;
  g.live <- g.live - 1

(* Free the kill-table slot of a resumer being woken. A slot still
   registered belongs to this resumer unless the group was killed, in
   which case the kill has already emptied the table. *)
let release fib slot =
  if slot >= 0 then
    match fib.group with
    | Some g when not g.killed -> vacate g slot
    | Some _ | None -> ()

(* Waking goes through the same-instant ring, never inline, preserving
   run-to-completion semantics of the current event. *)
let resume r result =
  match r with
  | Blocked b when b.reg <> fired ->
      let slot = b.reg in
      b.reg <- fired;
      b.result <- result;
      release b.fib slot;
      Engine.schedule_apply b.fib.eng ~delay:0.0 deliver r
  | Blocked _ | Hook _ -> ()

let is_pending = function Blocked b -> b.reg <> fired | Hook _ -> false

module Group = struct
  type t = group

  (* A hook handle packs the hook's slot and id, so an [unregister]
     that comes after a kill, or after the slot went to a newer entry,
     finds another id there and does nothing. *)
  let slot_bits = 22
  let slot_mask = (1 lsl slot_bits) - 1
  let max_handle_id = max_int lsr slot_bits

  (* slots [lo .. hi - 1] become the free list, in ascending order *)
  let chain_free ids ~lo ~hi =
    for s = lo to hi - 1 do
      let next = if s = hi - 1 then -1 else s + 1 in
      ids.(s) <- -2 - next
    done

  let create () =
    let ids = Array.make 16 0 in
    chain_free ids ~lo:0 ~hi:16;
    {
      killed = false;
      entries = Array.make 16 vacant;
      ids;
      free = 0;
      live = 0;
      buckets = 16;
      next_id = 0;
    }

  let killed t = t.killed

  let grow t =
    let n = Array.length t.ids in
    if 2 * n > slot_mask + 1 then
      failwith "Fiber.Group: more live entries than a kill-table slot encodes";
    let entries = Array.make (2 * n) vacant and ids = Array.make (2 * n) 0 in
    Array.blit t.entries 0 entries 0 n;
    Array.blit t.ids 0 ids 0 n;
    chain_free ids ~lo:n ~hi:(2 * n);
    t.entries <- entries;
    t.ids <- ids;
    t.free <- n

  let add t r =
    if t.free < 0 then grow t;
    let slot = t.free in
    t.free <- -2 - t.ids.(slot);
    let id = t.next_id in
    t.next_id <- id + 1;
    t.entries.(slot) <- Entry r;
    t.ids.(slot) <- id;
    t.live <- t.live + 1;
    if t.live > 2 * t.buckets then t.buckets <- 2 * t.buckets;
    slot

  (* What [add] followed at once by [vacate] leaves behind, for a sleep
     that never blocks: the id it drew and the bucket count its insert
     may have doubled. The free list ends as it began. *)
  let pass t =
    t.next_id <- t.next_id + 1;
    if t.live + 1 > 2 * t.buckets then t.buckets <- 2 * t.buckets

  let kill t =
    if not t.killed then begin
      t.killed <- true;
      let mask = t.buckets - 1 in
      let pending = ref [] in
      Array.iteri
        (fun slot id ->
          if id >= 0 then
            pending := (Hashtbl.hash id land mask, id, t.entries.(slot)) :: !pending)
        t.ids;
      t.entries <- [||];
      t.ids <- [||];
      t.free <- -1;
      t.live <- 0;
      let hashtbl_order (b1, id1, _) (b2, id2, _) =
        if b1 <> b2 then Int.compare b2 b1 else Int.compare id1 id2
      in
      List.iter
        (fun (_, _, Entry r) ->
          match r with Hook hook -> hook () | Blocked _ -> resume r cancelled)
        (List.sort hashtbl_order !pending)
    end

  (* a hook registered on a killed group never runs, so it is not
     stored; its handle matches no slot *)
  let register t hook =
    if t.killed then -1
    else begin
      if t.next_id > max_handle_id then
        failwith "Fiber.Group.register: kill-table ids exhausted";
      let slot = add t (Hook hook) in
      (t.ids.(slot) lsl slot_bits) lor slot
    end

  let unregister t handle =
    let slot = handle land slot_mask in
    if handle >= 0 && slot < Array.length t.ids
       && t.ids.(slot) = handle lsr slot_bits
    then vacate t slot
end

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Suspend : ('b -> 'a resumer -> unit) * 'b -> 'a Effect.t
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

(* A queued sleep is a timed event that wakes the resumer, followed by
   the usual wake hop through the same-instant ring: that hop gives the
   woken fiber its [(time, seq)] slot among the other events of the
   instant. When nothing else is queued at the instant, the hop would
   run next anyway, so the timer continues the fiber itself. A resumer
   already cancelled by a kill ignores its timer. *)
let wake_sleeper r =
  match r with
  | Blocked b when b.reg <> fired && Engine.idle_now b.fib.eng ->
      let slot = b.reg in
      b.reg <- fired;
      release b.fib slot;
      Effect.Deep.continue b.k ()
  | Blocked _ | Hook _ -> resume r ok_unit

let spawn eng ?group ?(name = "fiber") ?on_exn fn =
  let on_exn = match on_exn with Some f -> f | None -> default_on_exn name in
  let fib =
    { eng; group; delay = 0.0; register = no_register; register_arg = no_arg }
  in
  (* A direct sleep: when the wake-up would be the next event anyway
     (see [Engine.sleep_through]), move the clock and continue at once,
     with no resumer, no kill-table entry and no event. Only a grouped
     sleep leaves a trace, the kill-table id it would have drawn. *)
  let on_sleep =
    Some
      (fun k ->
        let d = fib.delay in
        let live = match group with Some g -> not g.killed | None -> true in
        if live && Engine.sleep_through eng d then begin
          Option.iter Group.pass group;
          Effect.Deep.continue k ()
        end
        else Engine.schedule_apply eng ~delay:d wake_sleeper (block fib k))
  in
  let on_suspend =
    Some
      (fun k ->
        let register = fib.register and arg = fib.register_arg in
        fib.register <- no_register;
        fib.register_arg <- no_arg;
        register arg (block fib k))
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
          | Suspend (register, arg) ->
              (* [on_suspend] is built once, so it cannot be typed at
                 each suspension's types; the casts below erase them
                 consistently for one suspension, and a resumer's
                 representation does not depend on its type parameter *)
              fib.register <- (Obj.magic register : Obj.t -> Obj.t resumer -> unit);
              fib.register_arg <- Obj.repr arg;
              (Obj.magic on_suspend
                : ((b, unit) Effect.Deep.continuation -> unit) option)
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

let suspend_with register arg = Effect.perform (Suspend (register, arg))

let apply register r = register r

let suspend register = suspend_with apply register
