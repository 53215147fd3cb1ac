(* A fixed calibration kernel, timed in the same process as the
   workload, that shares nothing with the simulator: a binary-heap event
   queue over boxed events with a hash table of pending ids, the same
   mix of allocation, pointer chasing and hashing the simulator's hot
   loop does. On a shared 2-core host the speed of identical runs
   drifted by half (CPU time tracked wall time, so it was the
   processor, not scheduling). Host times are reported scaled by the
   kernel's speed relative to [reference_s], so such drift cancels
   while a slower simulator still shows. *)

type event = { time : float; id : int; payload : int list }

let events = 200_000

let kernel () =
  let heap = Array.make 1024 { time = 0.0; id = 0; payload = [] } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).time > e.time do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1).time < heap.(l).time then l + 1 else l in
        if heap.(c).time < last.time then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let pending = Hashtbl.create 1024 in
  let state = ref 12345 in
  let next () =
    state := (!state * 1103515245) + 12345;
    (!state lsr 8) land 0xffff
  in
  for id = 0 to 511 do
    Hashtbl.replace pending id ();
    push { time = float_of_int (next ()); id; payload = [ id ] }
  done;
  let acc = ref 0 in
  for id = 512 to events + 511 do
    let e = pop () in
    Hashtbl.remove pending e.id;
    acc := !acc + List.length e.payload;
    Hashtbl.replace pending id ();
    push { time = e.time +. float_of_int (next ()); id; payload = [ id; e.id ] }
  done;
  Sys.opaque_identity !acc

(* The kernel's time on the host the figures are scaled to. *)
let reference_s = 0.05

(* Host seconds of one kernel run (the best of three). *)
let time () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    ignore (kernel () : int);
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best
