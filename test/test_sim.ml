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
   common), [None] pops. The model is an ordered set of
   [(priority, seq)] (seqs are unique), so a pop costs a logarithmic
   step, not a re-sort of the whole model. *)
module Heap_model = Set.Make (struct
  type t = float * int

  let compare (p1, s1) (p2, s2) =
    match Float.compare p1 p2 with 0 -> Int.compare s1 s2 | c -> c
end)

let prop_heap_random_ops =
  QCheck.Test.make ~name:"heap matches reference model under random ops" ~count:300
    QCheck.(list (option (int_bound 7)))
    (fun ops ->
      let h = Heap.create () in
      let seq = ref 0 in
      let model = ref Heap_model.empty and size = ref 0 in
      let model_pop () =
        match Heap_model.min_elt_opt !model with
        | None -> None
        | Some m ->
            model := Heap_model.remove m !model;
            decr size;
            Some m
      in
      let step op =
        (match op with
        | Some p ->
            let entry = (float_of_int p, !seq) in
            Heap.push h ~priority:(fst entry) ~seq:!seq entry;
            model := Heap_model.add entry !model;
            incr size;
            incr seq
        | None ->
            if Heap.pop h <> model_pop () then
              QCheck.Test.fail_report "pop disagrees with reference model");
        if Heap.length h <> !size then
          QCheck.Test.fail_report "length disagrees with reference model";
        if not (Heap.isheap ~check:true h) then
          QCheck.Test.fail_report "isheap violated"
      in
      List.iter step ops;
      (* drain: the remaining contents come out in exact model order *)
      for _ = 1 to !size do
        step None
      done;
      Heap.is_empty h)

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

(* NaN passes a [delay < 0.0] test; had it been queued, the clock
   would read NaN from the moment it ran *)
let test_engine_nan_rejected () =
  let eng = Engine.create () in
  let negative what = Invalid_argument (what ^ ": negative delay") in
  Alcotest.check_raises "schedule" (negative "Engine.schedule") (fun () ->
      Engine.schedule eng ~delay:nan ignore);
  Alcotest.check_raises "schedule_apply" (negative "Engine.schedule") (fun () ->
      Engine.schedule_apply eng ~delay:nan ignore ());
  Alcotest.check_raises "schedule_timer" (negative "Engine.schedule_timer")
    (fun () -> ignore (Engine.schedule_timer eng ~delay:nan ignore : unit -> unit));
  Alcotest.check_raises "schedule_at" (Invalid_argument "Engine.schedule_at: NaN time")
    (fun () -> Engine.schedule_at eng ~time:nan ignore);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending eng);
  Engine.schedule eng ~delay:1.0 ignore;
  Engine.run eng;
  check_float "clock intact" 1.0 (Engine.now eng)

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

(* A bad delay is rejected before the clock moves, even for a lone
   fiber whose sleep would otherwise continue in place. *)
let test_fiber_bad_sleep_rejected () =
  List.iter
    (fun d ->
      let eng = Engine.create () in
      let woke = ref false in
      Fiber.spawn eng (fun () ->
          Fiber.sleep d;
          Fiber.sleep 1.0;
          woke := true);
      Alcotest.check_raises (Printf.sprintf "sleep %h" d)
        (Invalid_argument "Engine.schedule: negative delay") (fun () -> Engine.run eng);
      Alcotest.(check bool) "clock untouched" true (Engine.now eng = 0.0);
      Alcotest.(check bool) "never woke" false !woke)
    [ nan; -1.0; neg_infinity ]

(* A sleep continues in place only up to the running loop's limit: the
   first wake past it is queued, and the next run picks it up as if
   the engine had never paused. *)
let test_fiber_sleep_stops_at_limit () =
  let start () =
    let eng = Engine.create () in
    let wakes = ref [] in
    Fiber.spawn eng (fun () ->
        for _ = 1 to 30 do
          Fiber.sleep 1.0;
          wakes := Fiber.now () :: !wakes
        done);
    (eng, wakes)
  in
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  let eng, wakes = start () in
  Engine.run eng ~until:10.5;
  Alcotest.(check (list (float 0.0))) "ten wakes" (upto 10) (List.rev !wakes);
  check_float "clock at the limit" 10.5 (Engine.now eng);
  Alcotest.(check int) "only the start ran as an event" 1 (Engine.executed eng);
  Alcotest.(check int) "the eleventh wake is queued" 1 (Engine.pending eng);
  Engine.run eng ~until:20.5;
  Alcotest.(check (list (float 0.0))) "twenty wakes" (upto 20) (List.rev !wakes);
  check_float "clock at the second limit" 20.5 (Engine.now eng);
  Alcotest.(check int) "the queued timer continued the fiber itself" 2
    (Engine.executed eng);
  let eng', wakes' = start () in
  Engine.run eng' ~until:20.5;
  Alcotest.(check (list (float 0.0))) "same as an unpaused run" (List.rev !wakes')
    (List.rev !wakes)

(* Sleeps against a model that always takes the queued path, built
   from raw events: a timer, then a same-instant hop that runs the next
   segment. Fibers with small integer delays (0 is a yield) and
   periodic plain events collide at the same instants, and the runs
   pause at random limits, so sleeps continue in place, wake inline and
   queue in every mix; the order of segments and the clock must match
   the model's. A periodic event re-arms itself, so it can fall between
   a fiber's timer and its hop, where an inline wake would run the
   fiber too early. *)
let prop_fiber_sleeps_match_queued_model =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 4) (list_size (int_range 0 8) (int_bound 3)))
        (list_size (int_bound 4) (triple (int_bound 8) (int_range 1 3) (int_range 1 5)))
        (list_size (int_bound 4) (map (fun x -> float_of_int x /. 2.0) (int_bound 24))))
  in
  let print =
    QCheck.Print.(
      triple (list (list int)) (list (triple int int int)) (list float))
  in
  QCheck.Test.make ~name:"sleeps keep the queued (time, seq) order" ~count:300
    (QCheck.make ~print gen)
    (fun (scripts, ticks, pauses) ->
      let run ~fibers =
        let eng = Engine.create () in
        let log = ref [] in
        let note who step = log := (Engine.now eng, who, step) :: !log in
        List.iteri
          (fun i delays ->
            if fibers then
              Fiber.spawn eng (fun () ->
                  note i 0;
                  List.iteri
                    (fun k d ->
                      Fiber.sleep (float_of_int d);
                      note i (k + 1))
                    delays)
            else
              let rec next step = function
                | [] -> ()
                | d :: rest ->
                    Engine.schedule eng ~delay:(float_of_int d) (fun () ->
                        Engine.schedule eng ~delay:0.0 (fun () ->
                            note i step;
                            next (step + 1) rest))
              in
              Engine.schedule eng ~delay:0.0 (fun () ->
                  note i 0;
                  next 1 delays))
          scripts;
        List.iteri
          (fun j (start, period, count) ->
            let rec tick n () =
              note (-1 - j) n;
              if n < count then Engine.schedule eng ~delay:(float_of_int period) (tick (n + 1))
            in
            Engine.schedule eng ~delay:(float_of_int start) (tick 1))
          ticks;
        List.iter (fun until -> Engine.run eng ~until) (List.sort compare pauses);
        Engine.run eng;
        (List.rev !log, Engine.now eng)
      in
      run ~fibers:true = run ~fibers:false)

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
    (Some false) !registered;
  (* a lone sleeper would otherwise continue in place *)
  let group = Fiber.Group.create () and slept = ref "" in
  Fiber.spawn eng ~group (fun () ->
      Fiber.Group.kill group;
      match Fiber.sleep 1.0 with
      | () -> slept := "woke"
      | exception Fiber.Cancelled -> slept := "cancelled");
  Engine.run eng;
  Alcotest.(check string) "a sleep raises Cancelled too" "cancelled" !slept

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

(* The kill table against a reference model: the id-keyed Stdlib
   [Hashtbl] it replaced. A random block / wake / register / unregister
   sequence ends in a kill, whose cancel order must be the model's
   [fold]-then-cons order. Unregisters may reuse stale handles, some of
   whose slots already went to newer entries, and [Wake_all] drains the
   table well below its peak, which the emulated bucket count must not
   follow. *)
type kill_op =
  | Block of int
  | Sleepers of int
  | Direct of int
  | Wake of int
  | Wake_all
  | Hook
  | Unhook of int

let kill_order_agrees ops =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  (* the model: registration id -> label, in the replaced table's shape
     ([Hashtbl.create 16], [replace] on register, [remove] on wake or
     unregister) *)
  let model = Hashtbl.create 16 and next_id = ref 0 in
  let enter label =
    let id = !next_id in
    incr next_id;
    Hashtbl.replace model id label;
    id
  in
  let blocked = ref [||] and nblocked = ref 0 in
  let hooks = ref [||] and nhooks = ref 0 in
  let push arr n x =
    if !n = Array.length !arr then arr := Array.append !arr (Array.make (max 16 !n) x);
    !arr.(!n) <- x;
    incr n
  in
  let cancelled = ref [] and hook_runs = ref [] and base = ref 0 in
  let queued_yields = ref 0 in
  let block ~sleep =
    let label = Printf.sprintf "f%d" !nblocked in
    let id = enter label in
    let slot = ref None in
    push blocked nblocked (id, slot);
    Fiber.spawn eng ~group (fun () ->
        try
          if sleep then Fiber.sleep 1e9 else Fiber.suspend (fun r -> slot := Some r)
        with Fiber.Cancelled -> cancelled := label :: !cancelled)
  in
  let wake = function
    | id, { contents = Some r } ->
        if Fiber.is_pending r then Hashtbl.remove model id;
        Fiber.resume r (Ok ())
    | _, { contents = None } -> () (* a sleeper: only its timer wakes it *)
  in
  let apply = function
    | Block n -> for _ = 1 to n do block ~sleep:false done
    | Sleepers n -> for _ = 1 to n do block ~sleep:true done
    | Direct n ->
        (* one fiber yields [n] times with nothing else pending, so each
           yield continues in place: its id is drawn and dropped at once *)
        for _ = 1 to n do
          Hashtbl.remove model (enter "direct")
        done;
        Fiber.spawn eng ~group (fun () ->
            for _ = 1 to n do
              let before = Engine.executed eng in
              Fiber.yield ();
              if Engine.executed eng <> before then incr queued_yields
            done)
    | Wake i when !nblocked > 0 -> wake !blocked.(i mod !nblocked)
    | Wake_all -> Array.iteri (fun i b -> if i < !nblocked then wake b) !blocked
    | Hook ->
        let label = Printf.sprintf "h%d" !nhooks in
        let id = enter label in
        let handle =
          Fiber.Group.register group (fun () ->
              hook_runs := (label, Engine.pending eng - !base) :: !hook_runs)
        in
        push hooks nhooks (id, handle)
    | Unhook i when !nhooks > 0 ->
        let id, handle = !hooks.(i mod !nhooks) in
        Hashtbl.remove model id;
        Fiber.Group.unregister group handle
    | Wake _ | Unhook _ -> ()
  in
  (* ops apply between engine instants, so blocks register in spawn
     order, the order the model numbered them in *)
  List.iter
    (fun op ->
      apply op;
      Engine.run eng ~until:(Engine.now eng))
    ops;
  let expected = Hashtbl.fold (fun _ label acc -> label :: acc) model [] in
  base := Engine.pending eng;
  Fiber.Group.kill group;
  Engine.run eng ~until:(Engine.now eng);
  (* hooks ran inline during the kill, fibers' cancellations were
     queued in kill order: a hook's stamp counts the fibers before it *)
  let rec merge pos fibers hooks =
    match hooks with
    | (h, at) :: rest when at <= pos -> h :: merge pos fibers rest
    | _ -> (
        match fibers with
        | f :: rest -> f :: merge (pos + 1) rest hooks
        | [] -> List.map fst hooks)
  in
  if !queued_yields > 0 then
    failwith "a yield with nothing else pending went through the queue";
  (merge 0 (List.rev !cancelled) (List.rev !hook_runs) = expected, model)

(* Every case includes one burst of 129 to 3000 blocks, so the emulated
   bucket count doubles at least three times (16 -> 128). *)
let kill_ops_gen =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map (fun n -> Block n) (int_range 1 40));
        (1, map (fun n -> Sleepers n) (int_range 1 20));
        (1, map (fun n -> Direct n) (int_range 1 40));
        (4, map (fun i -> Wake i) nat);
        (1, return Wake_all);
        (3, return Hook);
        (3, map (fun i -> Unhook i) nat);
      ]
  in
  map3
    (fun ops burst pos ->
      let pos = pos mod (List.length ops + 1) in
      List.filteri (fun i _ -> i < pos) ops
      @ (Block burst :: List.filteri (fun i _ -> i >= pos) ops))
    (list_size (int_range 0 120) op)
    (int_range 129 3000) nat

let print_kill_op = function
  | Block n -> Printf.sprintf "Block %d" n
  | Sleepers n -> Printf.sprintf "Sleepers %d" n
  | Direct n -> Printf.sprintf "Direct %d" n
  | Wake i -> Printf.sprintf "Wake %d" i
  | Wake_all -> "Wake_all"
  | Hook -> "Hook"
  | Unhook i -> Printf.sprintf "Unhook %d" i

let prop_kill_table_matches_hashtbl =
  QCheck.Test.make ~name:"kill order matches an id-keyed Hashtbl" ~count:60
    (QCheck.make ~print:QCheck.Print.(list print_kill_op) kill_ops_gen)
    (fun ops ->
      let agrees, model = kill_order_agrees ops in
      if (Hashtbl.stats model).Hashtbl.num_buckets < 128 then
        QCheck.Test.fail_report "fewer than three emulated resizes";
      agrees)

(* The bucket count doubles only once the table holds {e more} than two
   entries per bucket: kills at, just below and just above each
   threshold. *)
let test_fiber_kill_order_resize_boundaries () =
  List.iter
    (fun n ->
      let agrees, _ = kill_order_agrees [ Block n; Hook; Wake 0 ] in
      if not agrees then Alcotest.failf "kill order differs with %d entries" n)
    [ 31; 32; 33; 63; 64; 65; 127; 128; 129; 255; 256; 257; 511; 512; 513 ]

(* A sleep that continues in place still uses up the kill-table id it
   would have drawn, and its insert still counts toward the bucket
   doubling. Hooks registered after direct sleeps expose the first
   (their ids, hence their buckets, shift); a direct sleep that tips the
   table over a threshold, with no insert after it, exposes the
   second. *)
let test_fiber_kill_order_direct_sleeps () =
  List.iter
    (fun ops ->
      let agrees, _ = kill_order_agrees ops in
      if not agrees then
        Alcotest.failf "kill order differs for %s"
          (String.concat "; " (List.map print_kill_op ops)))
    (List.concat_map
       (fun n ->
         [
           [ Block n; Direct 1; Wake 0 ];
           [ Hook; Direct 3; Hook; Block n; Direct 2; Hook; Sleepers 2; Direct 1;
             Hook; Unhook 1; Wake 1 ];
         ])
       [ 1; 31; 32; 33; 63; 64; 65; 127; 128; 129 ])

(* Allocation ceilings: minor-heap words per blocking operation,
   measured over a warmed-up loop on one domain. The counts are exact
   for a given compiler, so a change that puts a closure or a box back
   on the blocking path fails here rather than only in the benchmark.
   A grouped sleep that continues in place takes 7 words, one that
   goes through the queue 22 (measured beside a partner that keeps it
   from running alone), a suspend/resume pair 14 and a contended mutex
   lock/unlock 34 (with the holder's yield that makes it contended).
   The queued sleep is held at its measured count; the other ceilings
   leave 2 words of slack. *)

let iterations = 2200

(* [partner], if given, runs as a second fiber of the same engine and
   group, started first *)
let words_per_op ?group ?partner body =
  let eng = Engine.create () in
  let n = 2000 in
  let words = ref nan in
  Option.iter (fun partner -> Fiber.spawn eng ?group partner) partner;
  Fiber.spawn eng ?group (fun () ->
      for _ = 1 to iterations - n do
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

(* A lone fiber's sleep is always the next event, so it continues in
   place: no resumer, no kill-table entry, no event. *)
let test_alloc_direct_sleep () =
  let group = Fiber.Group.create () in
  check_ceiling "direct grouped Fiber.sleep" ~ceiling:9.0
    (words_per_op ~group (fun () -> Fiber.sleep 1.0))

(* With a partner whose timers fall at the same instants, neither
   fiber is ever alone: each sleep takes the queued path, its timer and
   its ring hop. One measured iteration is one sleep of each fiber. *)
let test_alloc_grouped_sleep () =
  let sleep () = Fiber.sleep 1.0 in
  let partner () =
    for _ = 1 to iterations do
      sleep ()
    done
  in
  let group = Fiber.Group.create () in
  check_ceiling "queued grouped Fiber.sleep" ~ceiling:22.0
    (words_per_op ~group ~partner sleep /. 2.0)

let test_alloc_suspend_resume () =
  (* the resumer is fired from inside [register], so each iteration is
     exactly one suspend and one resume; [register] is allocated once *)
  let register r = Fiber.resume r (Ok ()) in
  let group = Fiber.Group.create () in
  check_ceiling "suspend + resume" ~ceiling:16.0
    (words_per_op ~group (fun () -> Fiber.suspend register))

let test_alloc_contended_mutex () =
  (* two fibers take turns: each holds the mutex across a yield, so the
     other's lock always queues and every unlock hands the mutex over;
     one measured iteration is one lock/unlock pair of each fiber *)
  let m = Sync.Mutex.create () in
  let body () =
    Sync.Mutex.lock m;
    Fiber.yield ();
    Sync.Mutex.unlock m
  in
  let partner () =
    for _ = 1 to iterations do
      body ()
    done
  in
  let group = Fiber.Group.create () in
  check_ceiling "contended Sync.Mutex lock + unlock" ~ceiling:36.0
    (words_per_op ~group ~partner body /. 2.0)

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
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_time_ordering;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
          Alcotest.test_case "NaN delay and time rejected" `Quick test_engine_nan_rejected;
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
        ]
        @ qcheck [ prop_engine_order_matches_model ] );
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
          Alcotest.test_case "direct sleep allocation ceiling" `Quick
            test_alloc_direct_sleep;
          Alcotest.test_case "grouped sleep allocation ceiling" `Quick
            test_alloc_grouped_sleep;
          Alcotest.test_case "suspend/resume allocation ceiling" `Quick
            test_alloc_suspend_resume;
          Alcotest.test_case "contended mutex allocation ceiling" `Quick
            test_alloc_contended_mutex;
          Alcotest.test_case "kill order at resize boundaries" `Quick
            test_fiber_kill_order_resize_boundaries;
          Alcotest.test_case "kill order with direct sleeps" `Quick
            test_fiber_kill_order_direct_sleeps;
          Alcotest.test_case "bad sleep rejected" `Quick test_fiber_bad_sleep_rejected;
          Alcotest.test_case "sleeps stop at the run limit" `Quick
            test_fiber_sleep_stops_at_limit;
        ]
        @ qcheck
            [ prop_kill_table_matches_hashtbl; prop_fiber_sleeps_match_queued_model ] );
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
