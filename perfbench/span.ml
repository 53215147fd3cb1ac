(* Spans the benchmark records around its own calls into the layers.
   Virtual spans (milliseconds of simulated time) are kept per
   transaction; host spans (seconds of wall clock) around the
   benchmark's calls to [Cluster.create], [Cluster.run] and
   [Cluster.restart_site]. Everything stays in memory and is written
   out as Chrome trace-event JSON when the run ends. A recorder that is
   off records nothing and never reads the virtual clock. *)

type kind = Txn | Dispatch_wait | Core_begin | Op_local | Op_remote | Core_commit

let kinds = [| Txn; Dispatch_wait; Core_begin; Op_local; Op_remote; Core_commit |]

let kind_index = function
  | Txn -> 0
  | Dispatch_wait -> 1
  | Core_begin -> 2
  | Op_local -> 3
  | Op_remote -> 4
  | Core_commit -> 5

let name = function
  | Txn -> "txn"
  | Dispatch_wait -> "dispatch.wait"
  | Core_begin -> "core.begin"
  | Op_local | Op_remote -> "server.op"
  | Core_commit -> "core.commit"

(* Spans are packed four floats each: transaction key, kind, start,
   stop. *)
type t = { on : bool; mutable buf : float array; mutable n : int }

let create ~on = { on; buf = (if on then Array.make 4096 0.0 else [||]); n = 0 }

let now t = if t.on then Camelot_sim.Fiber.now () else 0.0

let add t ~txn kind start stop =
  if t.on then begin
    if (t.n + 1) * 4 > Array.length t.buf then begin
      let bigger = Array.make (2 * Array.length t.buf) 0.0 in
      Array.blit t.buf 0 bigger 0 (t.n * 4);
      t.buf <- bigger
    end;
    let i = t.n * 4 in
    t.buf.(i) <- float_of_int txn;
    t.buf.(i + 1) <- float_of_int (kind_index kind);
    t.buf.(i + 2) <- start;
    t.buf.(i + 3) <- stop;
    t.n <- t.n + 1
  end

type span = { txn : int; kind : kind; start : float; stop : float }

let spans t =
  List.init t.n (fun j ->
      let i = j * 4 in
      {
        txn = int_of_float t.buf.(i);
        kind = kinds.(int_of_float t.buf.(i + 1));
        start = t.buf.(i + 2);
        stop = t.buf.(i + 3);
      })

(* Host spans, newest first: (name, start, stop) in seconds since the
   run began. *)
let host_spans = ref []
let clock = Unix.gettimeofday
let epoch = clock ()

(* Runs [f], logs its host span and returns its result with the span's
   length in seconds. *)
let host_span name f =
  let t0 = clock () in
  let v = f () in
  let t1 = clock () in
  host_spans := (name, t0 -. epoch, t1 -. epoch) :: !host_spans;
  (v, t1 -. t0)

(* Mean self time per transaction of each kind, in virtual ms: a
   span's duration minus the part of it its children cover. Only the
   [Txn] root has children (every other span of the transaction). *)
let self_ms_per_txn spans =
  let by_txn = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      Hashtbl.replace by_txn s.txn
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_txn s.txn)))
    spans;
  let totals = Array.make (Array.length kinds) 0.0 in
  let roots = ref 0 in
  Hashtbl.iter
    (fun _ group ->
      List.iter
        (fun s ->
          let self =
            match s.kind with
            | Txn ->
                incr roots;
                Calc.self_time (s.start, s.stop)
                  (List.filter_map
                     (fun c -> if c.kind = Txn then None else Some (c.start, c.stop))
                     group)
            | _ -> s.stop -. s.start
          in
          let k = kind_index s.kind in
          totals.(k) <- totals.(k) +. self)
        group)
    by_txn;
  let per = float_of_int (max 1 !roots) in
  Array.to_list (Array.map (fun k -> (k, totals.(kind_index k) /. per)) kinds)

(* Chrome trace-event JSON, written by hand: virtual spans under pid 1
   (one lane per transaction, at most [max_txns] transactions so the
   file stays small), host spans under pid 2. Timestamps are
   microseconds of the respective clock. *)
let write_chrome ~path ~max_txns spans =
  let oc = open_out path in
  let first = ref true in
  let event fmt =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc fmt
  in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  event "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"virtual time\"}}";
  event "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"host time\"}}";
  let kept = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if Hashtbl.mem kept s.txn || Hashtbl.length kept < max_txns then begin
        Hashtbl.replace kept s.txn ();
        let where =
          match s.kind with
          | Op_local -> ",\"args\":{\"site\":\"local\"}"
          | Op_remote -> ",\"args\":{\"site\":\"remote\"}"
          | _ -> ""
        in
        event
          "{\"name\":\"%s\",\"cat\":\"virtual\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f%s}"
          (name s.kind) s.txn (s.start *. 1000.0)
          ((s.stop -. s.start) *. 1000.0)
          where
      end)
    spans;
  List.iter
    (fun (n, a, b) ->
      event
        "{\"name\":\"%s\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}"
        n (a *. 1e6) ((b -. a) *. 1e6))
    (List.rev !host_spans);
  output_string oc "\n]}\n";
  close_out oc
