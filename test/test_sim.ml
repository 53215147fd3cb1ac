(* Tests for the discrete-event simulation substrate. *)

open Camelot_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iteri
    (fun i p -> Heap.push h ~priority:p ~seq:i p)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let popped = List.init 5 (fun _ -> Option.get (Heap.pop h)) in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] popped

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> Heap.push h ~priority:1.0 ~seq:i v) [ "a"; "b"; "c" ];
  let popped = List.init 3 (fun _ -> Option.get (Heap.pop h)) in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c" ] popped

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (float 1e-9))) "no peek" None (Heap.peek_priority h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~priority:1.0 ~seq:0 ();
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun floats ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~priority:p ~seq:i p) floats;
      let popped = List.init (List.length floats) (fun _ -> Option.get (Heap.pop h)) in
      popped = List.sort compare floats)

(* FasterHeaps-style invariant suite: every push/pop leaves a valid
   heap ([isheap ~check:true] walks parent/child ordering and verifies
   vacated slots are cleared), and a full drain pops in exact
   [(priority, seq)] order — FIFO on ties. *)

let test_heap_isheap_incremental () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty is a heap" true (Heap.isheap ~check:true h);
  List.iteri
    (fun i p ->
      Heap.push h ~priority:p ~seq:i p;
      Alcotest.(check bool)
        (Printf.sprintf "heap after push %d" i)
        true
        (Heap.isheap ~check:true h))
    [ 9.0; 1.0; 8.0; 1.0; 7.0; 1.0; 6.0; 2.0; 5.0; 3.0; 4.0; 0.0 ];
  for i = 1 to 12 do
    ignore (Heap.pop_exn h : float);
    Alcotest.(check bool)
      (Printf.sprintf "heap after pop %d" i)
      true
      (Heap.isheap ~check:true h)
  done

let test_heap_length_and_clear_reuse () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~priority:(float_of_int (9 - i)) ~seq:i i
  done;
  Alcotest.(check int) "length tracks pushes" 10 (Heap.length h);
  ignore (Heap.pop h : int option);
  Alcotest.(check int) "length tracks pops" 9 (Heap.length h);
  Heap.clear h;
  Alcotest.(check int) "clear empties" 0 (Heap.length h);
  Alcotest.(check bool) "clear leaves a valid heap" true (Heap.isheap h);
  (* a cleared heap is reusable *)
  Heap.push h ~priority:1.0 ~seq:0 7;
  Alcotest.(check (option int)) "reusable after clear" (Some 7) (Heap.pop h)

let test_heap_pop_exn_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.check_raises "pop_exn on empty" (Invalid_argument "Heap.pop_exn: empty")
    (fun () -> ignore (Heap.pop_exn h : int))

let test_heap_min_accessors () =
  let h = Heap.create () in
  Heap.push h ~priority:3.0 ~seq:5 "b";
  Heap.push h ~priority:1.0 ~seq:9 "a";
  check_float "min priority" 1.0 (Heap.min_priority h);
  Alcotest.(check int) "min seq" 9 (Heap.min_seq h)

(* random interleavings of push and pop, checked move-for-move against
   a reference model: every pop must return exactly the minimum by
   [(priority, seq)] — FIFO on ties — and [isheap] must hold
   throughout. [Some p] pushes priority [p] (0..7, so ties are
   common), [None] pops. *)
let prop_heap_random_ops =
  QCheck.Test.make ~name:"heap matches reference model under random ops" ~count:300
    QCheck.(list (option (int_bound 7)))
    (fun ops ->
      let h = Heap.create () in
      let seq = ref 0 in
      let model = ref [] in
      let lt (p1, s1) (p2, s2) = p1 < p2 || (p1 = p2 && s1 < s2) in
      let model_pop () =
        match List.sort (fun a b -> if lt a b then -1 else 1) !model with
        | [] -> None
        | m :: _ ->
            model := List.filter (fun e -> e <> m) !model;
            Some m
      in
      let step op =
        (match op with
        | Some p ->
            let entry = (float_of_int p, !seq) in
            Heap.push h ~priority:(fst entry) ~seq:!seq entry;
            model := entry :: !model;
            incr seq
        | None ->
            if Heap.pop h <> model_pop () then
              QCheck.Test.fail_report "pop disagrees with reference model");
        if Heap.length h <> List.length !model then
          QCheck.Test.fail_report "length disagrees with reference model";
        if not (Heap.isheap ~check:true h) then
          QCheck.Test.fail_report "isheap violated"
      in
      List.iter step ops;
      (* drain: the remaining contents come out in exact model order *)
      List.iter (fun _ -> step None) !model;
      Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Wheel *)

let test_wheel_ordering () =
  let w = Wheel.create () in
  List.iteri
    (fun i p -> Wheel.push w ~priority:p ~seq:i p)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let popped = List.init 5 (fun _ -> Option.get (Wheel.pop w)) in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] popped

let test_wheel_fifo_ties () =
  let w = Wheel.create () in
  List.iteri (fun i v -> Wheel.push w ~priority:1.0 ~seq:i v) [ "a"; "b"; "c" ];
  let popped = List.init 3 (fun _ -> Option.get (Wheel.pop w)) in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c" ] popped

let test_wheel_empty () =
  let w : int Wheel.t = Wheel.create () in
  Alcotest.(check bool) "empty" true (Wheel.is_empty w);
  Alcotest.(check bool) "pop none" true (Wheel.pop w = None);
  Alcotest.check_raises "pop_exn on empty" (Invalid_argument "Wheel.pop_exn: empty")
    (fun () -> ignore (Wheel.pop_exn w : int))

let test_wheel_overflow_adoption () =
  (* a 2-bucket, 1ms-wide wheel: anything past 2ms parks in overflow
     and must still pop in global order as the window rotates *)
  let w = Wheel.create ~width:1.0 ~buckets:2 () in
  List.iteri
    (fun i p -> Wheel.push w ~priority:p ~seq:i p)
    [ 10.5; 0.5; 3.2; 1.7; 42.0; 10.6 ];
  Alcotest.(check int) "all counted, overflow included" 6 (Wheel.length w);
  let popped = List.init 6 (fun _ -> Option.get (Wheel.pop w)) in
  Alcotest.(check (list (float 1e-9)))
    "overflow adopted in order" [ 0.5; 1.7; 3.2; 10.5; 10.6; 42.0 ] popped

let test_wheel_late_push () =
  (* after the window has rotated forward, a push behind it (the engine
     never does this with absolute times, but cancellation churn plus
     re-arming can) must still come out in (priority, seq) order *)
  let w = Wheel.create ~width:1.0 ~buckets:4 () in
  Wheel.push w ~priority:5.0 ~seq:0 5.0;
  check_float "window rotated to 5" 5.0 (Option.get (Wheel.pop w));
  Wheel.push w ~priority:1.0 ~seq:1 1.0;
  Wheel.push w ~priority:5.5 ~seq:2 5.5;
  check_float "late entry first" 1.0 (Option.get (Wheel.pop w));
  check_float "then the window entry" 5.5 (Option.get (Wheel.pop w));
  Alcotest.(check bool) "drained" true (Wheel.is_empty w)

let test_wheel_min_accessors () =
  let w = Wheel.create ~width:1.0 ~buckets:2 () in
  Wheel.push w ~priority:33.0 ~seq:5 "b";
  Wheel.push w ~priority:1.0 ~seq:9 "a";
  check_float "min priority" 1.0 (Wheel.min_priority w);
  Alcotest.(check int) "min seq" 9 (Wheel.min_seq w)

(* random push/pop interleavings on tiny geometries (so window
   rotation, adoption and late pushes all happen constantly), checked
   pop-for-pop against a plain heap *)
let prop_wheel_matches_heap =
  QCheck.Test.make ~name:"wheel pops exactly like a heap" ~count:300
    QCheck.(
      triple (int_range 1 5) (int_range 1 8)
        (list (option (pair (int_bound 30) (int_bound 9)))))
    (fun (buckets, width10, ops) ->
      let width = float_of_int width10 /. 10.0 in
      let w = Wheel.create ~width ~buckets () in
      let h = Heap.create () in
      let seq = ref 0 in
      let step op =
        (match op with
        | Some (p10, frac) ->
            let priority = float_of_int p10 +. (float_of_int frac /. 10.0) in
            Wheel.push w ~priority ~seq:!seq !seq;
            Heap.push h ~priority ~seq:!seq !seq;
            incr seq
        | None ->
            if Wheel.pop w <> Heap.pop h then
              QCheck.Test.fail_report "pop disagrees with heap");
        if Wheel.length w <> Heap.length h then
          QCheck.Test.fail_report "length disagrees with heap"
      in
      List.iter step ops;
      while not (Heap.is_empty h) do
        step None
      done;
      Wheel.is_empty w)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_ordering () =
  let eng = Engine.create () in
  let order = ref [] in
  Engine.schedule eng ~delay:5.0 (fun () -> order := 5 :: !order);
  Engine.schedule eng ~delay:1.0 (fun () -> order := 1 :: !order);
  Engine.schedule eng ~delay:3.0 (fun () -> order := 3 :: !order);
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !order);
  check_float "clock at last event" 5.0 (Engine.now eng)

let test_engine_until () =
  let eng = Engine.create () in
  let ran = ref 0 in
  Engine.schedule eng ~delay:1.0 (fun () -> incr ran);
  Engine.schedule eng ~delay:10.0 (fun () -> incr ran);
  Engine.run ~until:5.0 eng;
  Alcotest.(check int) "only first ran" 1 !ran;
  check_float "clock advanced to limit" 5.0 (Engine.now eng);
  Alcotest.(check int) "one pending" 1 (Engine.pending eng)

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let finish = ref 0.0 in
  Engine.schedule eng ~delay:2.0 (fun () ->
      Engine.schedule eng ~delay:3.0 (fun () -> finish := Engine.now eng));
  Engine.run eng;
  check_float "relative delay" 5.0 !finish

let test_engine_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule eng ~delay:(-1.0) (fun () -> ()))

let test_engine_schedule_at_past_clamps () =
  let eng = Engine.create () in
  let ran_at = ref (-1.0) in
  Engine.schedule eng ~delay:10.0 (fun () ->
      (* scheduling into the past runs at the current time instead *)
      Engine.schedule_at eng ~time:3.0 (fun () -> ran_at := Engine.now eng));
  Engine.run eng;
  check_float "clamped to now" 10.0 !ran_at

let test_engine_executed_counter () =
  let eng = Engine.create () in
  for i = 1 to 5 do
    Engine.schedule eng ~delay:(float_of_int i) (fun () -> ())
  done;
  Engine.run eng;
  Alcotest.(check int) "five events executed" 5 (Engine.executed eng)

let test_engine_cancel_timer () =
  let eng = Engine.create () in
  let ran = ref [] in
  let cancel = Engine.schedule_timer eng ~delay:5.0 (fun () -> ran := "t5" :: !ran) in
  Engine.schedule eng ~delay:10.0 (fun () -> ran := "e10" :: !ran);
  Alcotest.(check int) "both pending" 2 (Engine.pending eng);
  cancel ();
  Alcotest.(check int) "cancelled timer leaves pending" 1 (Engine.pending eng);
  cancel ();
  (* idempotent *)
  Alcotest.(check int) "double cancel is a no-op" 1 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check (list string)) "only the live event ran" [ "e10" ] (List.rev !ran);
  Alcotest.(check int) "cancelled timers are not executed" 1 (Engine.executed eng)

let test_engine_timer_fires_then_cancel_noop () =
  let eng = Engine.create () in
  let fired = ref 0 in
  let cancel = Engine.schedule_timer eng ~delay:1.0 (fun () -> incr fired) in
  Engine.run eng;
  Alcotest.(check int) "fired once" 1 !fired;
  cancel ();
  (* cancelling after the fact must not corrupt queue accounting *)
  Alcotest.(check int) "nothing pending" 0 (Engine.pending eng);
  Engine.schedule eng ~delay:1.0 (fun () -> ());
  Alcotest.(check int) "fresh event counted" 1 (Engine.pending eng);
  Engine.run eng

let test_engine_cancel_heavy_drains () =
  let eng = Engine.create () in
  let survivors = ref 0 in
  for i = 1 to 100 do
    let cancel =
      Engine.schedule_timer eng ~delay:(float_of_int i) (fun () -> incr survivors)
    in
    if i mod 5 <> 0 then cancel ()
  done;
  Alcotest.(check int) "pending excludes tombstones" 20 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "survivors all ran" 20 !survivors;
  Alcotest.(check int) "executed counts only live timers" 20 (Engine.executed eng);
  Alcotest.(check int) "queue fully drained" 0 (Engine.pending eng)

let test_engine_zero_delay_fifo_vs_heap () =
  (* the same-instant fast path must not jump ahead of an older event
     sitting in the heap at the same timestamp: A (t=5, seq 0) runs and
     schedules C with delay 0 (t=5, seq 2); B (t=5, seq 1) must still
     run before C *)
  let eng = Engine.create () in
  let order = ref [] in
  Engine.schedule eng ~delay:5.0 (fun () ->
      order := "A" :: !order;
      Engine.schedule eng ~delay:0.0 (fun () -> order := "C" :: !order));
  Engine.schedule eng ~delay:5.0 (fun () -> order := "B" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "global (time, seq) order" [ "A"; "B"; "C" ]
    (List.rev !order)

let test_engine_zero_delay_storm () =
  let eng = Engine.create () in
  let ran = ref 0 in
  let rec chain n () =
    if n > 0 then begin
      incr ran;
      Engine.schedule eng ~delay:0.0 (chain (n - 1))
    end
  in
  Engine.schedule eng ~delay:3.0 (chain 500);
  Engine.run eng;
  Alcotest.(check int) "whole chain ran" 500 !ran;
  check_float "clock pinned at the instant" 3.0 (Engine.now eng)

let test_engine_zero_delay_fifo_among_themselves () =
  let eng = Engine.create () in
  let order = ref [] in
  for i = 1 to 50 do
    Engine.schedule eng ~delay:0.0 (fun () -> order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "insertion order" (List.init 50 (fun i -> i + 1))
    (List.rev !order)

(* randomized schedule/cancel sequences against a reference model of
   the (time, seq) total order — validates the heap/ring merge *)
let prop_engine_order_matches_model =
  (* each element: (delay in 0..4, cancelled?) — delay 0 exercises the
     ring lane, small range forces same-time collisions *)
  QCheck.Test.make ~name:"engine executes in (time, seq) order under cancels"
    ~count:200
    QCheck.(list (pair (int_bound 4) bool))
    (fun specs ->
      let eng = Engine.create () in
      let ran = ref [] in
      let expected = ref [] in
      List.iteri
        (fun i (d, cancelled) ->
          let delay = float_of_int d in
          if cancelled then
            let cancel = Engine.schedule_timer eng ~delay (fun () -> ran := i :: !ran) in
            cancel ()
          else begin
            Engine.schedule eng ~delay (fun () -> ran := i :: !ran);
            expected := (delay, i) :: !expected
          end)
        specs;
      Engine.run eng;
      let model =
        List.sort
          (fun (t1, s1) (t2, s2) -> compare (t1, s1) (t2, s2))
          !expected
      in
      List.rev !ran = List.map snd model)

(* The pending/tombstone invariant, ring lane: a cancelled zero-delay
   timer leaves its tombstone in the FIFO ring, not the timed queue —
   [pending] must exclude it there too, and draining must not count it
   as executed. *)
let test_engine_pending_ring_tombstone () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:1.0 (fun () ->
      let cancel = Engine.schedule_timer eng ~delay:0.0 (fun () -> ()) in
      Engine.schedule eng ~delay:0.0 (fun () -> ());
      cancel ();
      Alcotest.(check int) "ring tombstone excluded" 1 (Engine.pending eng));
  Engine.run eng;
  Alcotest.(check int) "tombstone not executed" 2 (Engine.executed eng);
  Alcotest.(check int) "drained" 0 (Engine.pending eng)

(* The pending/tombstone invariant across [run ~until]: a tombstone
   stranded beyond the limit stays buried with [dead] still counting
   it, so [pending] is correct before, between and after the runs. *)
let test_engine_pending_tombstone_beyond_until () =
  let eng = Engine.create () in
  let cancel = Engine.schedule_timer eng ~delay:10.0 (fun () -> ()) in
  Engine.schedule eng ~delay:2.0 (fun () -> ());
  cancel ();
  Alcotest.(check int) "cancelled before run" 1 (Engine.pending eng);
  Engine.run ~until:5.0 eng;
  Alcotest.(check int) "tombstone past limit stays excluded" 0 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "still zero after the drain" 0 (Engine.pending eng);
  Alcotest.(check int) "only the live event executed" 1 (Engine.executed eng)

(* The cancel-heavy accounting test again, on the wheel backend — the
   tombstones now spread across buckets and the overflow heap, which
   [pending] must all see through. Delays span far past the default
   window so the overflow lane is genuinely exercised. *)
let test_engine_wheel_cancel_heavy_drains () =
  let eng = Engine.create ~timers:Engine.Wheel_timers () in
  let survivors = ref 0 in
  for i = 1 to 100 do
    let cancel =
      (* 31ms apart: 100 timers span 3.1s, past the 2048ms window *)
      Engine.schedule_timer eng ~delay:(float_of_int (i * 31)) (fun () ->
          incr survivors)
    in
    if i mod 5 <> 0 then cancel ()
  done;
  Alcotest.(check int) "pending excludes tombstones" 20 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "survivors all ran" 20 !survivors;
  Alcotest.(check int) "executed counts only live timers" 20 (Engine.executed eng);
  Alcotest.(check int) "queue fully drained" 0 (Engine.pending eng)

(* Run one randomized timer/cancel/reschedule workload on a given
   backend and return the exact execution log [(time, id)]. Callbacks
   re-arm follow-up timers and cancel siblings, so the two lanes and
   (on the wheel) window rotation, adoption and late pushes are all
   exercised from inside running events. *)
let backend_trace ~timers specs =
  let eng = Engine.create ~timers () in
  let log = ref [] in
  let cancels = Hashtbl.create 16 in
  List.iteri
    (fun i (d10, cancel_at, chain) ->
      let delay = float_of_int d10 /. 4.0 in
      let cancel =
        Engine.schedule_timer eng ~delay (fun () ->
            log := (Engine.now eng, i) :: !log;
            (* cancel a sibling mid-run *)
            (match Hashtbl.find_opt cancels cancel_at with
            | Some c -> c ()
            | None -> ());
            (* re-arm a follow-up, sometimes at delay 0 (ring lane) *)
            if chain then
              Engine.schedule eng
                ~delay:(if i mod 3 = 0 then 0.0 else float_of_int (i mod 7))
                (fun () -> log := (Engine.now eng, i + 1000) :: !log))
      in
      Hashtbl.replace cancels i cancel)
    specs;
  Engine.run eng;
  List.rev !log

(* Satellite property: the wheel-backed engine replays the exact same
   (time, seq) schedule as the heap-backed one. Replay failures with
   CAMELOT_SEED=<printed seed>. *)
let prop_engine_wheel_heap_identical =
  QCheck.Test.make
    ~name:"wheel-backed engine executes the identical schedule" ~count:300
    QCheck.(list (triple (int_bound 60) (int_bound 19) bool))
    (fun specs ->
      backend_trace ~timers:Engine.Heap_timers specs
      = backend_trace ~timers:Engine.Wheel_timers specs)

(* ------------------------------------------------------------------ *)
(* Fiber *)

let test_fiber_sleep () =
  let eng = Engine.create () in
  let result =
    Fiber.run eng (fun () ->
        Fiber.sleep 10.0;
        Fiber.sleep 5.0;
        Fiber.now ())
  in
  check_float "slept 15ms" 15.0 result

let test_fiber_interleaving () =
  let eng = Engine.create () in
  let log = ref [] in
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      log := "a1" :: !log;
      Fiber.sleep 2.0;
      log := "a2" :: !log);
  Fiber.spawn eng (fun () ->
      Fiber.sleep 2.0;
      log := "b1" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b1"; "a2" ] (List.rev !log)

let test_fiber_group_kill () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let progressed = ref false in
  let cancelled = ref false in
  Fiber.spawn eng ~group (fun () ->
      (try Fiber.sleep 100.0 with
      | Fiber.Cancelled as e ->
          cancelled := true;
          raise e);
      progressed := true);
  Engine.schedule eng ~delay:10.0 (fun () -> Fiber.Group.kill group);
  Engine.run eng;
  Alcotest.(check bool) "cancelled" true !cancelled;
  Alcotest.(check bool) "did not progress" false !progressed

let test_fiber_group_kill_prevents_start () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let started = ref false in
  Fiber.Group.kill group;
  Fiber.spawn eng ~group (fun () -> started := true);
  Engine.run eng;
  Alcotest.(check bool) "not started" false !started

let test_fiber_exception_isolated () =
  let eng = Engine.create () in
  let seen = ref None in
  Fiber.spawn eng ~on_exn:(fun e -> seen := Some e) (fun () -> failwith "boom");
  Fiber.spawn eng (fun () -> Fiber.sleep 1.0);
  Engine.run eng;
  match !seen with
  | Some (Failure msg) -> Alcotest.(check string) "exn captured" "boom" msg
  | _ -> Alcotest.fail "expected Failure"

let test_fiber_run_deadlock () =
  let eng = Engine.create () in
  Alcotest.check_raises "deadlock detected"
    (Failure "Fiber.run: main fiber blocked forever (deadlock)") (fun () ->
      Fiber.run eng (fun () -> Fiber.suspend (fun (_ : unit Fiber.resumer) -> ())))

let test_fiber_suspend_resume () =
  let eng = Engine.create () in
  let resumer = ref None in
  Engine.schedule eng ~delay:7.0 (fun () ->
      match !resumer with Some r -> Fiber.resume r (Ok 42) | None -> ());
  let result =
    Fiber.run eng (fun () -> Fiber.suspend (fun r -> resumer := Some r))
  in
  Alcotest.(check int) "resumed with value" 42 result

(* Wake semantics: a resumer fires at most once, whoever gets there
   first — its own timer, an explicit [resume], or a group kill. *)

let test_fiber_killed_sleeper_discontinued_once () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let cancels = ref 0 and woke = ref 0 in
  Fiber.spawn eng ~group (fun () ->
      match Fiber.sleep 100.0 with
      | () -> incr woke
      | exception Fiber.Cancelled -> incr cancels);
  Engine.run eng ~until:10.0;
  Fiber.Group.kill group;
  Fiber.Group.kill group;
  Engine.run eng;
  Alcotest.(check int) "discontinued once" 1 !cancels;
  Alcotest.(check int) "late timer is a no-op" 0 !woke;
  (* start, kill hop, then the stale timer: it still counts as an event *)
  Alcotest.(check int) "events" 3 (Engine.executed eng);
  check_float "timer drained" 100.0 (Engine.now eng)

let test_fiber_resume_after_kill_ignored () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let resumer = ref None and got = ref [] in
  Fiber.spawn eng ~group (fun () ->
      match Fiber.suspend (fun r -> resumer := Some r) with
      | v -> got := `Value v :: !got
      | exception Fiber.Cancelled -> got := `Cancelled :: !got);
  Engine.run eng;
  let r = Option.get !resumer in
  Alcotest.(check bool) "pending before kill" true (Fiber.is_pending r);
  Fiber.Group.kill group;
  Alcotest.(check bool) "not pending after kill" false (Fiber.is_pending r);
  Fiber.resume r (Ok 1);
  Fiber.resume r (Error Exit);
  Engine.run eng;
  Alcotest.(check bool) "only the cancellation" true (!got = [ `Cancelled ])

let test_fiber_pending_false_once_fired () =
  let eng = Engine.create () in
  let resumer = ref None and woke = ref 0 in
  Fiber.spawn eng (fun () ->
      Fiber.suspend (fun r -> resumer := Some r);
      incr woke);
  Engine.run eng;
  let r = Option.get !resumer in
  Alcotest.(check bool) "pending while blocked" true (Fiber.is_pending r);
  Fiber.resume r (Ok ());
  (* the wake is queued, not run, yet the resumer is already spent *)
  Alcotest.(check bool) "not pending once fired" false (Fiber.is_pending r);
  Alcotest.(check int) "not yet running" 0 !woke;
  Fiber.resume r (Ok ());
  Engine.run eng;
  Alcotest.(check int) "woke once" 1 !woke

let test_fiber_suspend_on_killed_group () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let outcome = ref "" and registered = ref None in
  Fiber.spawn eng ~group (fun () ->
      Fiber.Group.kill group;
      match Fiber.suspend (fun r -> registered := Some (Fiber.is_pending r)) with
      | () -> outcome := "resumed"
      | exception Fiber.Cancelled -> outcome := "cancelled");
  Engine.run eng;
  Alcotest.(check string) "raises Cancelled" "cancelled" !outcome;
  Alcotest.(check (option bool)) "resumer handed over already spent"
    (Some false) !registered

(* [Group.kill] cancels sleepers, suspenders and [Group.register] hooks
   in one order fixed by the group's id-keyed table (including the
   holes left by entries that woke or unregistered first). The expected
   list was recorded from the closure-based implementation this one
   replaced, so any change to the kill order shows up here. Hooks run
   inline during the kill; fiber cancellations are queued, so a hook's
   position among the fibers is read from how many wakes were queued
   before it ran. *)
let kill_order_expected =
  [ "f3"; "f37"; "f51"; "h56"; "h59"; "f18"; "h53"; "f45"; "h5"; "f12";
    "f49"; "f7"; "f30"; "f40"; "f36"; "f43"; "f48"; "h14"; "h17"; "f52";
    "h11"; "f15"; "h50"; "f6"; "h44"; "f1"; "f25"; "f58"; "f24"; "h20";
    "h47"; "f55"; "f10"; "h32"; "f9"; "f27"; "f33"; "f54"; "h2"; "h35";
    "h29"; "f16"; "h38"; "f39"; "f57"; "h41"; "f28"; "h23"; "f21"; "f22";
    "f46"; "f42"; "f13"; "f34"; "f0" ]

let test_fiber_kill_order () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let fibers = ref [] and hooks = ref [] and base = ref 0 in
  let resumers = Hashtbl.create 16 and hook_ids = Hashtbl.create 16 in
  for i = 0 to 59 do
    Fiber.spawn eng (fun () ->
        match i mod 3 with
        | 0 ->
            Fiber.spawn eng ~group (fun () ->
                try Fiber.sleep (float_of_int (100 + i))
                with Fiber.Cancelled -> fibers := i :: !fibers)
        | 1 ->
            Fiber.spawn eng ~group (fun () ->
                try Fiber.suspend (fun r -> Hashtbl.replace resumers i r)
                with Fiber.Cancelled -> fibers := i :: !fibers)
        | _ ->
            Hashtbl.replace hook_ids i
              (Fiber.Group.register group (fun () ->
                   hooks := (i, Engine.pending eng - !base) :: !hooks)))
  done;
  Engine.run eng ~until:1.0;
  (* punch holes: wake some suspenders, drop some hooks *)
  List.iter (fun i -> Fiber.resume (Hashtbl.find resumers i) (Ok ())) [ 4; 19; 31 ];
  List.iter (fun i -> Fiber.Group.unregister group (Hashtbl.find hook_ids i)) [ 8; 26 ];
  Engine.run eng ~until:2.0;
  base := Engine.pending eng;
  Fiber.Group.kill group;
  Engine.run eng;
  let fibers = List.rev !fibers in
  let rec merge pos fibers hooks =
    match hooks with
    | (h, at) :: rest when at <= pos -> Printf.sprintf "h%d" h :: merge pos fibers rest
    | _ -> (
        match fibers with
        | f :: rest -> Printf.sprintf "f%d" f :: merge (pos + 1) rest hooks
        | [] -> List.map (fun (h, _) -> Printf.sprintf "h%d" h) hooks)
  in
  let order = merge 0 fibers (List.rev !hooks) in
  Alcotest.(check (list string)) "kill order" kill_order_expected order

(* Allocation ceilings: minor-heap words per blocking operation,
   measured over a warmed-up loop on one domain. The counts are exact
   for a given compiler, so a change that puts a closure or a box back
   on the blocking path fails here rather than only in the benchmark.
   The closure-based blocking this replaced measured 62 words for a
   grouped sleep and 52 for a suspend/resume pair; both now take 24. *)

let words_per_op ?group body =
  let eng = Engine.create () in
  let n = 2000 in
  let words = ref nan in
  Fiber.spawn eng ?group (fun () ->
      for _ = 1 to 200 do
        body ()
      done;
      let before = Gc.minor_words () in
      for _ = 1 to n do
        body ()
      done;
      words := (Gc.minor_words () -. before) /. float_of_int n);
  Engine.run eng;
  !words

let check_ceiling what ~ceiling words =
  if not (words <= ceiling) then
    Alcotest.failf "%s: %.2f minor words per operation, ceiling %.0f" what words
      ceiling

let test_alloc_grouped_sleep () =
  let group = Fiber.Group.create () in
  check_ceiling "grouped Fiber.sleep" ~ceiling:32.0
    (words_per_op ~group (fun () -> Fiber.sleep 1.0))

let test_alloc_suspend_resume () =
  (* the resumer is fired from inside [register], so each iteration is
     exactly one suspend and one resume; [register] is allocated once *)
  let register r = Fiber.resume r (Ok ()) in
  let group = Fiber.Group.create () in
  check_ceiling "suspend + resume" ~ceiling:32.0
    (words_per_op ~group (fun () -> Fiber.suspend register))

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let received = ref [] in
  Fiber.spawn eng (fun () ->
      for _ = 1 to 3 do
        received := Mailbox.recv mb :: !received
      done);
  Fiber.spawn eng (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Fiber.sleep 5.0;
      Mailbox.send mb 3);
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let test_mailbox_timeout_expires () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  let result =
    Fiber.run eng (fun () ->
        let r = Mailbox.recv_timeout mb 10.0 in
        (r, Fiber.now ()))
  in
  Alcotest.(check (option int)) "timed out" None (fst result);
  check_float "waited full timeout" 10.0 (snd result)

let test_mailbox_timeout_delivery () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  Engine.schedule eng ~delay:3.0 (fun () -> Mailbox.send mb "hi");
  let result = Fiber.run eng (fun () -> Mailbox.recv_timeout mb 10.0) in
  Alcotest.(check (option string)) "delivered" (Some "hi") result

let test_mailbox_timeout_then_send_queues () =
  (* After a receive times out, a later send must queue the message, not
     deliver it to the dead waiter. *)
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let outcome =
    Fiber.run eng (fun () ->
        let first = Mailbox.recv_timeout mb 5.0 in
        Mailbox.send mb 99;
        (first, Mailbox.try_recv mb))
  in
  Alcotest.(check (pair (option int) (option int)))
    "message queued after timeout" (None, Some 99) outcome

let test_mailbox_waiters_count () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  Fiber.spawn eng (fun () -> ignore (Mailbox.recv mb : int));
  Fiber.spawn eng (fun () -> ignore (Mailbox.recv mb : int));
  Engine.run ~until:1.0 eng;
  Alcotest.(check int) "two waiters" 2 (Mailbox.waiters mb);
  Mailbox.send mb 0;
  Engine.run ~until:2.0 eng;
  Alcotest.(check int) "one waiter" 1 (Mailbox.waiters mb)

(* ------------------------------------------------------------------ *)
(* Sync *)

let test_mutex_exclusion () =
  let eng = Engine.create () in
  let m = Sync.Mutex.create () in
  let log = ref [] in
  let worker name =
    Fiber.spawn eng (fun () ->
        Sync.Mutex.lock m;
        log := (name ^ ":in") :: !log;
        Fiber.sleep 10.0;
        log := (name ^ ":out") :: !log;
        Sync.Mutex.unlock m)
  in
  worker "a";
  worker "b";
  Engine.run eng;
  Alcotest.(check (list string))
    "critical sections do not overlap"
    [ "a:in"; "a:out"; "b:in"; "b:out" ]
    (List.rev !log)

let test_mutex_unlock_unlocked () =
  let m = Sync.Mutex.create () in
  Alcotest.check_raises "unlock unheld"
    (Invalid_argument "Sync.Mutex.unlock: not locked") (fun () ->
      Sync.Mutex.unlock m)

let test_condition_signal () =
  let eng = Engine.create () in
  let m = Sync.Mutex.create () in
  let c = Sync.Condition.create eng in
  let ready = ref false in
  let woke_at = ref 0.0 in
  Fiber.spawn eng (fun () ->
      Sync.Mutex.lock m;
      while not !ready do
        Sync.Condition.wait c m
      done;
      woke_at := Fiber.now ();
      Sync.Mutex.unlock m);
  Fiber.spawn eng (fun () ->
      Fiber.sleep 25.0;
      Sync.Mutex.lock m;
      ready := true;
      Sync.Condition.signal c;
      Sync.Mutex.unlock m);
  Engine.run eng;
  check_float "woke after signal" 25.0 !woke_at

let test_condition_broadcast () =
  let eng = Engine.create () in
  let m = Sync.Mutex.create () in
  let c = Sync.Condition.create eng in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Fiber.spawn eng (fun () ->
        Sync.Mutex.lock m;
        Sync.Condition.wait c m;
        incr woken;
        Sync.Mutex.unlock m)
  done;
  Engine.schedule eng ~delay:5.0 (fun () -> Sync.Condition.broadcast c);
  Engine.run eng;
  Alcotest.(check int) "all woken" 3 !woken

let test_semaphore_limits () =
  let eng = Engine.create () in
  let sem = Sync.Semaphore.create 2 in
  let active = ref 0 in
  let max_active = ref 0 in
  for _ = 1 to 5 do
    Fiber.spawn eng (fun () ->
        Sync.Semaphore.acquire sem;
        incr active;
        if !active > !max_active then max_active := !active;
        Fiber.sleep 10.0;
        decr active;
        Sync.Semaphore.release sem)
  done;
  Engine.run eng;
  Alcotest.(check int) "at most 2 concurrent" 2 !max_active

let test_resource_fcfs () =
  let eng = Engine.create () in
  let r = Sync.Resource.create eng ~name:"disk" in
  let waits = ref [] in
  for _ = 1 to 3 do
    Fiber.spawn eng (fun () ->
        let waited = Sync.Resource.use r ~duration:15.0 in
        waits := waited :: !waits)
  done;
  Engine.run eng;
  Alcotest.(check (list (float 1e-9)))
    "queueing delays" [ 0.0; 15.0; 30.0 ]
    (List.sort compare !waits);
  check_float "busy time" 45.0 (Sync.Resource.busy_time r);
  Alcotest.(check int) "completions" 3 (Sync.Resource.completions r)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 in
  let b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.uniform a) (Rng.uniform b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let xa = Rng.uniform a and xb = Rng.uniform b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let prop_rng_uniform_bounds =
  QCheck.Test.make ~name:"uniform in [0,1)" ~count:1000 QCheck.int (fun seed ->
      let rng = Rng.create ~seed in
      let x = Rng.uniform rng in
      x >= 0.0 && x < 1.0)

let prop_rng_int_below =
  QCheck.Test.make ~name:"int_below in range" ~count:500
    QCheck.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let x = Rng.int_below rng bound in
      x >= 0 && x < bound)

let prop_rng_exponential_positive =
  QCheck.Test.make ~name:"exponential non-negative" ~count:500 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      Rng.exponential rng ~mean:10.0 >= 0.0)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:1 in
  let acc = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:10.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 10" true (abs_float (mean -. 10.0) < 0.5)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:2 in
  let stats = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add stats (Rng.gaussian rng ~mu:5.0 ~sigma:2.0)
  done;
  Alcotest.(check bool) "mean near 5" true (abs_float (Stats.mean stats -. 5.0) < 0.1);
  Alcotest.(check bool) "sd near 2" true (abs_float (Stats.stddev stats -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Stats.mean s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 4.0 (Stats.max s);
  check_float "total" 10.0 (Stats.total s);
  Alcotest.(check int) "count" 4 (Stats.count s)

let test_stats_variance () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "sample variance" (32.0 /. 7.0) (Stats.variance s)

let test_stats_percentile () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0; 30.0; 40.0 ];
  check_float "median interpolated" 25.0 (Stats.median s);
  check_float "p0 is min" 10.0 (Stats.percentile s 0.0);
  check_float "p100 is max" 40.0 (Stats.percentile s 100.0)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "mean of empty" 0.0 (Stats.mean s);
  check_float "variance of empty" 0.0 (Stats.variance s);
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.0 : float))

let test_stats_histogram () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 9.0; 10.0 ];
  let bins = Stats.histogram s ~buckets:2 in
  (match bins with
  | [ (lo1, hi1, n1); (_, hi2, n2) ] ->
      check_float "first bin starts at min" 0.0 lo1;
      check_float "split at midpoint" 5.0 hi1;
      check_float "last bin ends at max" 10.0 hi2;
      Alcotest.(check (pair int int)) "counts (max in last bin)" (5, 3) (n1, n2)
  | _ -> Alcotest.fail "expected 2 bins");
  Alcotest.check_raises "empty histogram" (Invalid_argument "Stats.histogram: empty")
    (fun () -> ignore (Stats.histogram (Stats.create ()) ~buckets:4))

let prop_stats_histogram_counts_all =
  QCheck.Test.make ~name:"histogram bins sum to sample count" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 60) (float_bound_inclusive 50.0))
              (int_range 1 12))
    (fun (floats, buckets) ->
      let s = Stats.create () in
      List.iter (Stats.add s) floats;
      let total =
        List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Stats.histogram s ~buckets)
      in
      total = List.length floats)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 100.0))
    (fun floats ->
      let s = Stats.create () in
      List.iter (Stats.add s) floats;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_inclusive 100.0))
    (fun floats ->
      let s = Stats.create () in
      List.iter (Stats.add s) floats;
      Stats.percentile s 25.0 <= Stats.percentile s 75.0 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records () =
  let eng = Engine.create () in
  let tr = Trace.create ~capacity:8 () in
  Engine.schedule eng ~delay:5.0 (fun () -> Trace.record tr eng ~tag:"x" "event %d" 1);
  Engine.run eng;
  match Trace.dump tr with
  | [ r ] ->
      check_float "timestamp" 5.0 r.Trace.time;
      Alcotest.(check string) "tag" "x" r.Trace.tag;
      Alcotest.(check string) "message" "event 1" r.Trace.message
  | l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l))

let test_trace_ring_overflow () =
  let eng = Engine.create () in
  let tr = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record tr eng ~tag:"t" "%d" i
  done;
  let messages = List.map (fun r -> r.Trace.message) (Trace.dump tr) in
  Alcotest.(check (list string)) "keeps newest" [ "3"; "4"; "5" ] messages

let test_trace_disabled () =
  let eng = Engine.create () in
  let tr = Trace.create () in
  Trace.set_enabled tr false;
  Trace.record tr eng ~tag:"t" "dropped";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.dump tr))

(* ------------------------------------------------------------------ *)

(* CAMELOT_SEED-replayable randomized suites (see test/testutil.ml) *)
let qcheck tests =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Testutil.qcheck_rand ())) tests

let () =
  Alcotest.run "camelot_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "pops in priority order" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty heap" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "isheap holds push by push" `Quick
            test_heap_isheap_incremental;
          Alcotest.test_case "length and clear reuse" `Quick
            test_heap_length_and_clear_reuse;
          Alcotest.test_case "pop_exn on empty rejected" `Quick test_heap_pop_exn_empty;
          Alcotest.test_case "min accessors" `Quick test_heap_min_accessors;
        ]
        @ qcheck [ prop_heap_sorts; prop_heap_random_ops ] );
      ( "wheel",
        [
          Alcotest.test_case "pops in priority order" `Quick test_wheel_ordering;
          Alcotest.test_case "FIFO on ties" `Quick test_wheel_fifo_ties;
          Alcotest.test_case "empty wheel" `Quick test_wheel_empty;
          Alcotest.test_case "overflow adopted in order" `Quick
            test_wheel_overflow_adoption;
          Alcotest.test_case "late push behind the window" `Quick
            test_wheel_late_push;
          Alcotest.test_case "min accessors" `Quick test_wheel_min_accessors;
        ]
        @ qcheck [ prop_wheel_matches_heap ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_time_ordering;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
          Alcotest.test_case "schedule_at clamps past times" `Quick
            test_engine_schedule_at_past_clamps;
          Alcotest.test_case "executed counter" `Quick test_engine_executed_counter;
          Alcotest.test_case "timer cancel" `Quick test_engine_cancel_timer;
          Alcotest.test_case "cancel after fire is no-op" `Quick
            test_engine_timer_fires_then_cancel_noop;
          Alcotest.test_case "cancel-heavy queue drains" `Quick
            test_engine_cancel_heavy_drains;
          Alcotest.test_case "zero-delay respects older heap events" `Quick
            test_engine_zero_delay_fifo_vs_heap;
          Alcotest.test_case "zero-delay storm" `Quick test_engine_zero_delay_storm;
          Alcotest.test_case "zero-delay FIFO" `Quick
            test_engine_zero_delay_fifo_among_themselves;
          Alcotest.test_case "pending excludes ring tombstones" `Quick
            test_engine_pending_ring_tombstone;
          Alcotest.test_case "pending correct across run ~until" `Quick
            test_engine_pending_tombstone_beyond_until;
          Alcotest.test_case "wheel backend: cancel-heavy drains" `Quick
            test_engine_wheel_cancel_heavy_drains;
        ]
        @ qcheck
            [ prop_engine_order_matches_model; prop_engine_wheel_heap_identical ] );
      ( "fiber",
        [
          Alcotest.test_case "sleep advances clock" `Quick test_fiber_sleep;
          Alcotest.test_case "interleaving" `Quick test_fiber_interleaving;
          Alcotest.test_case "group kill cancels" `Quick test_fiber_group_kill;
          Alcotest.test_case "kill prevents start" `Quick test_fiber_group_kill_prevents_start;
          Alcotest.test_case "exception isolated" `Quick test_fiber_exception_isolated;
          Alcotest.test_case "deadlock detected" `Quick test_fiber_run_deadlock;
          Alcotest.test_case "suspend/resume" `Quick test_fiber_suspend_resume;
          Alcotest.test_case "killed sleeper discontinued once" `Quick
            test_fiber_killed_sleeper_discontinued_once;
          Alcotest.test_case "resume after kill ignored" `Quick
            test_fiber_resume_after_kill_ignored;
          Alcotest.test_case "is_pending false once fired" `Quick
            test_fiber_pending_false_once_fired;
          Alcotest.test_case "suspend on killed group" `Quick
            test_fiber_suspend_on_killed_group;
          Alcotest.test_case "kill order" `Quick test_fiber_kill_order;
          Alcotest.test_case "grouped sleep allocation ceiling" `Quick
            test_alloc_grouped_sleep;
          Alcotest.test_case "suspend/resume allocation ceiling" `Quick
            test_alloc_suspend_resume;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "FIFO delivery" `Quick test_mailbox_fifo;
          Alcotest.test_case "timeout expires" `Quick test_mailbox_timeout_expires;
          Alcotest.test_case "delivery before timeout" `Quick test_mailbox_timeout_delivery;
          Alcotest.test_case "send after timeout queues" `Quick test_mailbox_timeout_then_send_queues;
          Alcotest.test_case "waiter count" `Quick test_mailbox_waiters_count;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
          Alcotest.test_case "unlock unheld rejected" `Quick test_mutex_unlock_unlocked;
          Alcotest.test_case "condition signal" `Quick test_condition_signal;
          Alcotest.test_case "condition broadcast" `Quick test_condition_broadcast;
          Alcotest.test_case "semaphore limits concurrency" `Quick test_semaphore_limits;
          Alcotest.test_case "resource FCFS with durations" `Quick test_resource_fcfs;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
        ]
        @ qcheck
            [ prop_rng_uniform_bounds; prop_rng_int_below; prop_rng_exponential_positive ] );
      ( "stats",
        [
          Alcotest.test_case "basic accumulators" `Quick test_stats_basic;
          Alcotest.test_case "sample variance" `Quick test_stats_variance;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile;
          Alcotest.test_case "empty stats" `Quick test_stats_empty;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ]
        @ qcheck
            [
              prop_stats_mean_bounds;
              prop_stats_percentile_monotone;
              prop_stats_histogram_counts_all;
            ] );
      ( "trace",
        [
          Alcotest.test_case "records with timestamps" `Quick test_trace_records;
          Alcotest.test_case "ring overflow keeps newest" `Quick test_trace_ring_overflow;
          Alcotest.test_case "disabled trace records nothing" `Quick test_trace_disabled;
        ] );
    ]
