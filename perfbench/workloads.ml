(* The three workloads, each driven through the simulator's public API.
   One call of a workload's [rep] builds a fresh cluster from the seed
   and warms it up (together: the set-up), runs the timed phase and
   checks the outputs. Virtual results are a function of the seed
   alone, so every repetition within a run must reproduce them. *)

open Camelot_sim
open Camelot_core
module Cluster = Camelot.Cluster
module Ds = Camelot_server.Data_server
module Cost_model = Camelot_mach.Cost_model

type rep = {
  create_s : float;  (** host: [Cluster.create] *)
  setup_s : float;  (** host: inputs, [Cluster.create] and warm-up *)
  run_s : float;  (** host: [Cluster.run] in the timed phase *)
  restart_s : float;  (** host: [Cluster.restart_site], 0 if none *)
  finished : int;  (** transactions finished in the timed phase *)
  events : int;  (** engine events executed by the timed [Cluster.run] *)
  words : float;  (** minor words allocated in the timed phase *)
  live_mb : float;  (** major heap the run holds live when its timed run ends *)
  outcomes : Calc.outcomes;  (** the measured (post-warm-up) transactions *)
  latencies : float array;  (** headline commit latencies, virtual ms *)
  window_ms : float;  (** virtual time the committed count is taken over *)
  layers : (string * float) list;  (** virtual per-layer values *)
  ladder : Calc.rung list;  (** open-loop rate ladder, when one was run *)
  checks : (string * bool) list;
  spans : Span.t;  (** the repetition's span recorder *)
}

(* Minor words allocated so far by every domain, including worker
   domains already joined: [Gc.minor] flushes the calling domain's
   count into [quick_stat], which in OCaml 5.1 also carries the counts
   of terminated domains (plain [Gc.minor_words] does not). *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* The live major heap, after a full collection. Taken before a
   repetition (which so starts from a collected heap, paying nothing
   for its predecessor's garbage) and at the end of its timed run, the
   difference is what the run holds. The logs and the latency samples only grow, so that
   is the run's peak of live data; unlike the heap's high-water mark it
   does not depend on when the collector ran. *)
let live_heap_mb () =
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

let executed c = Engine.executed (Cluster.engine c)
let clock = Unix.gettimeofday

(* One data operation through the communication manager, as a
   [server.op] span of the transaction. *)
let op tr c ~origin tid ~site o =
  let t0 = Span.now tr in
  let kind = if site = origin then Span.Op_local else Span.Op_remote in
  match Cluster.op c ~origin tid ~site o with
  | _ -> Span.add tr ~txn:(Tid.key tid) kind t0 (Span.now tr)
  | exception e ->
      Span.add tr ~txn:(Tid.key tid) kind t0 (Span.now tr);
      raise e

let begin_txn tr tm =
  let t0 = Span.now tr in
  let tid = Tranman.begin_transaction tm in
  Span.add tr ~txn:(Tid.key tid) Span.Core_begin t0 (Span.now tr);
  tid

let commit_txn tr tm ?protocol tid =
  let t0 = Span.now tr in
  let outcome = Tranman.commit tm ?protocol tid in
  Span.add tr ~txn:(Tid.key tid) Span.Core_commit t0 (Span.now tr);
  outcome

(* Per-layer counters read from the layers' public counters, per
   transaction finished over the whole run. *)
let layer_counters c ~txns ~timeouts =
  let m = Camelot.Metrics.collect c in
  let n = float_of_int (max 1 txns) in
  let sites = List.init (Cluster.sites c) Fun.id in
  let per_site = m.Camelot.Metrics.sites in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs in
  let bs = List.map (fun s -> Camelot_wal.Log.batch_stats (Cluster.log c s)) sites in
  let locks = List.map (fun s -> Ds.locks (Cluster.server c s)) sites in
  let lock_sum f = sum (fun l -> float_of_int (f l)) locks in
  let force_n = sum (fun b -> float_of_int b.Camelot_wal.Log.bs_force_lat_n) bs in
  [
    ( "mach.cpu_util_pct",
      100.0
      *. List.fold_left (fun a s -> Float.max a s.Camelot.Metrics.cpu_utilization) 0.0 per_site
    );
    ("mach.cpu_ms_per_txn", sum (fun s -> s.Camelot.Metrics.cpu_busy_ms) per_site /. n);
    ( "net.datagrams_per_txn",
      sum (fun l -> float_of_int (Camelot_net.Lan.sent l)) (Cluster.lans c) /. n );
    ("wal.forces_per_commit", Camelot.Metrics.forces_per_commit m);
    ("wal.disk_writes_per_commit", Camelot.Metrics.disk_writes_per_commit m);
    ( "wal.batch_mean",
      ratio
        (sum (fun b -> float_of_int b.Camelot_wal.Log.bs_records) bs)
        (sum (fun b -> float_of_int b.Camelot_wal.Log.bs_writes) bs) );
    ( "wal.force_wait_ms",
      ratio
        (sum
           (fun b ->
             b.Camelot_wal.Log.bs_force_lat_mean_ms
             *. float_of_int b.Camelot_wal.Log.bs_force_lat_n)
           bs)
        force_n );
    ( "wal.records_per_txn",
      sum (fun s -> float_of_int s.Camelot.Metrics.log_records) per_site /. n );
    ("lock.grants_per_txn", lock_sum Camelot_lock.Lock_table.grants /. n);
    ( "lock.contended_pct",
      100.0
      *. ratio
           (lock_sum Camelot_lock.Lock_table.contended_grants)
           (lock_sum Camelot_lock.Lock_table.grants) );
    ("lock.timeouts_per_ktxn", 1000.0 *. float_of_int timeouts /. n);
  ]

(* The timed phase's counters: started after the warm-up, read again
   when it ends. *)
type mark = { m_events : int; m_words : float }

let mark c = { m_events = executed c; m_words = minor_words () }

let timed_run c ~until =
  snd (Span.host_span "cluster.run" (fun () -> Cluster.run ~until c))

let outcomes ~attempted ~committed ~aborted ~timed_out ~shed =
  {
    Calc.attempted;
    committed;
    aborted;
    timed_out;
    shed;
    unfinished = attempted - committed - aborted - timed_out - shed;
  }

(* ---- paper-minimal -----------------------------------------------------

   §4.2's basic experiment on the RT model: one application at site 0
   runs minimal transactions back to back, in turn over local read,
   local update, 1-subordinate optimized 2PC write (the headline case)
   and 1-subordinate non-blocking write, always on the same element.
   The experiment fixes the inputs; the seed reaches it through the
   model's network and CPU jitter. *)

module Paper = struct
  let warmup_ms = 60_000.0
  let stop_ms = 1_860_000.0
  let drain_ms = 3_000.0
  let local_read = 0
  let local_update = 1
  let sub_2pc = 2
  let sub_nb = 3

  let rep ~seed ~traced =
    let live0 = live_heap_mb () in
    let t_setup = clock () in
    let tr = Span.create ~on:traced in
    let c, create_s = Span.host_span "cluster.create" (fun () -> Cluster.create ~seed ~sites:2 ()) in
    let tm = Cluster.tranman c 0 in
    let lat = Array.init 4 (fun _ -> Stats.create ()) in
    let committed_all = Array.make 4 0 in
    let finished = ref 0 and aborted_all = ref 0 in
    let attempted = ref 0 and committed = ref 0 and aborted = ref 0 in
    Camelot_mach.Site.spawn (Tranman.site tm) (fun () ->
        let i = ref 0 in
        while Fiber.now () < stop_ms do
          let case = !i mod 4 in
          incr i;
          let measured = Fiber.now () >= warmup_ms in
          if measured then incr attempted;
          let t0 = Fiber.now () in
          let tid = begin_txn tr tm in
          let add site = op tr c ~origin:0 tid ~site (Ds.Add ("elt", 1)) in
          if case = local_read then op tr c ~origin:0 tid ~site:0 (Ds.Read "elt")
          else if case = local_update then add 0
          else begin
            add 0;
            add 1
          end;
          let protocol = if case = sub_nb then Protocol.Nonblocking else Protocol.Two_phase in
          let outcome = commit_txn tr tm ~protocol tid in
          let t1 = Fiber.now () in
          Span.add tr ~txn:(Tid.key tid) Span.Txn t0 t1;
          incr finished;
          match outcome with
          | Protocol.Committed ->
              committed_all.(case) <- committed_all.(case) + 1;
              if measured then begin
                incr committed;
                Stats.add lat.(case) (t1 -. t0)
              end
          | Protocol.Aborted ->
              incr aborted_all;
              if measured then incr aborted
        done);
    Cluster.run ~until:warmup_ms c;
    let setup_s = clock () -. t_setup in
    let f0 = !finished and m0 = mark c in
    let run_s = timed_run c ~until:(stop_ms +. drain_ms) in
    let m1 = mark c in
    let live_mb = live_heap_mb () -. live0 in
    let mean case = Stats.mean lat.(case) in
    let static =
      Camelot_analysis.Static.completion_path Cost_model.rt ~protocol:Protocol.Two_phase
        { Camelot_analysis.Static.subordinates = 1; update = true }
    in
    let updates_at_1 = committed_all.(sub_2pc) + committed_all.(sub_nb) in
    let updates_at_0 = committed_all.(local_update) + updates_at_1 in
    {
      create_s;
      setup_s;
      run_s;
      restart_s = 0.0;
      finished = !finished - f0;
      events = m1.m_events - m0.m_events;
      words = m1.m_words -. m0.m_words;
      live_mb;
      outcomes =
        outcomes ~attempted:!attempted ~committed:!committed ~aborted:!aborted ~timed_out:0
          ~shed:0;
      latencies = Stats.samples lat.(sub_2pc);
      window_ms = stop_ms -. warmup_ms;
      layers =
        layer_counters c ~txns:!finished ~timeouts:0
        @ [
            ( "analysis.static_share_pct",
              100.0 *. static.Camelot_analysis.Static.total /. mean sub_2pc );
            ( "analysis.paper_gap_pct",
              Calc.paper_gap_pct
                [ (mean local_update, 31.0); (mean sub_2pc, 110.0); (mean local_read, 13.0) ]
            );
          ];
      ladder = [];
      checks =
        [
          ("no transaction aborted", !aborted_all = 0);
          ( "site 0 element equals its committed updates",
            Ds.peek (Cluster.server c 0) "elt" = updates_at_0 );
          ( "site 1 element equals its committed updates",
            Ds.peek (Cluster.server c 1) "elt" = updates_at_1 );
        ];
      spans = tr;
    }
end

(* ---- closed loops -------------------------------------------------------

   [workers] fibers per site loop think-then-transact until [stop_ms],
   then the run drains. Each worker draws its inputs from its own
   stream. A distributed update touches every site in ascending id
   order, so lock acquisition follows one global order and cannot
   deadlock. *)

type closed = {
  sites : int;
  workers : int;
  keys : int;
  think_mean_ms : float;
  p_read : float;
  p_update : float;
  warmup_ms : float;
  stop_ms : float;
  drain_ms : float;
}

(* [incr.(site * keys + k)] counts the committed increments of key [k]
   at [site]. *)
type tally = {
  lat : Stats.t;
  incr : int array;
  mutable attempted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable finished : int;
}

let key_name k = "k" ^ string_of_int k

let closed_loop w ~seed ~traced ~create =
  let live0 = live_heap_mb () in
  let t_setup = clock () in
  let c, create_s = Span.host_span "cluster.create" create in
  let tr = Span.create ~on:traced in
  let everywhere = List.init w.sites Fun.id in
  let tally =
    {
      lat = Stats.create ();
      incr = Array.make (w.sites * w.keys) 0;
      attempted = 0;
      committed = 0;
      aborted = 0;
      finished = 0;
    }
  in
  for site = 0 to w.sites - 1 do
    let tm = Cluster.tranman c site in
    for worker = 0 to w.workers - 1 do
      let st = Inputs.stream ~seed ((site * 1024) + worker + 2) in
      Camelot_mach.Site.spawn (Tranman.site tm) (fun () ->
          let rec loop () =
            let s =
              Inputs.next_step st ~think_mean_ms:w.think_mean_ms ~keys:w.keys
                ~p_read:w.p_read ~p_update:w.p_update
            in
            Fiber.sleep s.think_ms;
            if Fiber.now () < w.stop_ms then begin
              let measured = Fiber.now () >= w.warmup_ms in
              if measured then tally.attempted <- tally.attempted + 1;
              let t0 = Fiber.now () in
              let tid = begin_txn tr tm in
              let key = key_name s.key in
              let body () =
                match s.kind with
                | Inputs.Read ->
                    op tr c ~origin:site tid ~site (Ds.Read key);
                    []
                | Inputs.Update ->
                    op tr c ~origin:site tid ~site (Ds.Add (key, 1));
                    [ site ]
                | Inputs.Distributed ->
                    List.iter
                      (fun t -> op tr c ~origin:site tid ~site:t (Ds.Add (key, 1)))
                      everywhere;
                    everywhere
              in
              let touched = body () in
              let outcome = commit_txn tr tm tid in
              let t1 = Fiber.now () in
              Span.add tr ~txn:(Tid.key tid) Span.Txn t0 t1;
              tally.finished <- tally.finished + 1;
              (match outcome with
              | Protocol.Committed ->
                  List.iter
                    (fun t ->
                      let i = (t * w.keys) + s.key in
                      tally.incr.(i) <- tally.incr.(i) + 1)
                    touched;
                  if measured then begin
                    tally.committed <- tally.committed + 1;
                    Stats.add tally.lat (t1 -. t0)
                  end
              | Protocol.Aborted -> if measured then tally.aborted <- tally.aborted + 1);
              loop ()
            end
          in
          loop ())
    done
  done;
  Cluster.run ~until:w.warmup_ms c;
  let setup_s = clock () -. t_setup in
  let f0 = tally.finished and m0 = mark c in
  let run_s = timed_run c ~until:(w.stop_ms +. w.drain_ms) in
  let m1 = mark c in
  let live_mb = live_heap_mb () -. live0 in
  let values_ok = ref true in
  for site = 0 to w.sites - 1 do
    for k = 0 to w.keys - 1 do
      if Ds.peek (Cluster.server c site) (key_name k) <> tally.incr.((site * w.keys) + k) then
        values_ok := false
    done
  done;
  ( c,
    {
      create_s;
      setup_s;
      run_s;
      restart_s = 0.0;
      finished = tally.finished - f0;
      events = m1.m_events - m0.m_events;
      words = m1.m_words -. m0.m_words;
      live_mb;
      outcomes =
        outcomes ~attempted:tally.attempted ~committed:tally.committed ~aborted:tally.aborted
          ~timed_out:0 ~shed:0;
      latencies = Stats.samples tally.lat;
      window_ms = w.stop_ms -. w.warmup_ms;
      layers = layer_counters c ~txns:tally.finished ~timeouts:0;
      ladder = [];
      checks = [ ("every key equals its committed increments", !values_ok) ];
      spans = tr;
    } )

(* ---- closed-groupcommit --------------------------------------------------

   Figs 4-5 on the VAX model: 4 sites x 8 workers running the Table-3
   mix (40% local read, 50% local update, 10% 2PC update of every site)
   with the adaptive group-commit logger. At the end site 0 crashes and
   restarts inside the timed phase. *)

module Groupcommit = struct
  let w =
    {
      sites = 4;
      workers = 8;
      keys = 8;
      think_mean_ms = 5.0;
      p_read = 0.4;
      p_update = 0.9;
      warmup_ms = 20_000.0;
      stop_ms = 1_220_000.0;
      drain_ms = 5_000.0;
    }

  let rep ~seed ~traced =
    let config = State.default_config ~threads:w.workers () in
    let create () =
      Cluster.create ~seed ~model:Cost_model.vax ~config ~group_commit:true
        ~logger:Cluster.Adaptive ~sites:w.sites ()
    in
    let c, r = closed_loop w ~seed ~traced ~create in
    let w0 = minor_words () in
    let server0 = Cluster.server c 0 in
    let before = List.init w.keys (fun k -> Ds.peek server0 (key_name k)) in
    Cluster.crash_site c 0;
    let log0 = Cluster.log c 0 in
    let scanned = Camelot_wal.Log.durable_lsn log0 - Camelot_wal.Log.base_lsn log0 + 1 in
    let in_doubt, restart_s =
      Span.host_span "restart_site" (fun () ->
          Fiber.run (Cluster.engine c) (fun () -> Cluster.restart_site c 0))
    in
    let words = minor_words () -. w0 in
    let after = List.init w.keys (fun k -> Ds.peek server0 (key_name k)) in
    {
      r with
      restart_s;
      words = r.words +. words;
      layers =
        r.layers
        @ [ ("recovery.records_scanned", float_of_int scanned) ];
      checks =
        r.checks
        @ [
            ("no transaction in doubt after restart", in_doubt = []);
            ("site 0 recovers its committed values", before = after);
          ];
    }
end

(* ---- open-hotspot --------------------------------------------------------

   Independent users, so an open loop: Poisson arrivals of debit/credit
   transfers over 64 accounts at Zipf 0.99 hit 24 sites, each with
   4 dispatch shards x 4 executors, under a 50 ms lock timeout. *)

module Hotspot = struct
  let sites = 24
  let keys = 64
  let theta = 0.99
  let p_remote = 0.1
  let shards = 4
  let executors = 4
  let lock_timeout_ms = 50.0
  let reference_tps = 200.0
  let warmup_ms = 10_000.0
  let horizon_ms = 130_000.0
  let drain_ms = 5_000.0

  (* The rate ladder for [open_loop.sustainable_tps]: short runs
     without drain, spanning the saturation knee near 400 tps. *)
  let ladder_tps = [ 100.0; 200.0; 300.0; 400.0; 500.0; 600.0 ]
  let ladder_horizon_ms = 10_000.0
  let limit_ms = 1000.0
  let account k = "a" ^ string_of_int k

  type run = {
    cluster : Cluster.t;
    create_s : float;
    tr : Span.t;
    lat : Stats.t;
    dispatches : Camelot_mach.Dispatch.t array;
    arrivals : int;  (** measured arrivals *)
    mutable submitted : int;
    mutable shed : int;
    mutable committed : int;
    mutable aborted : int;
    mutable timed_out : int;
    mutable finished : int;  (** every arrival, warm-up included *)
    mutable finished_measured : int;
  }

  (* Builds the cluster and arms the arrival chain: each arrival's
     timer schedules the next one, so one timer is pending at a time. *)
  let start ~seed ~traced ~rate_tps ~horizon_ms ~warmup_ms =
    let schedule =
      Inputs.arrivals ~seed ~rate_tps ~horizon_ms ~sites ~keys ~theta ~p_remote
    in
    let config = State.default_config ~threads:(shards * executors) () in
    let cluster, create_s =
      Span.host_span "cluster.create" (fun () ->
          Cluster.create ~seed ~model:Cost_model.vax ~config ~group_commit:true
            ~logger:Cluster.Adaptive ~lock_timeout_ms ~sites ())
    in
    let r =
      {
        cluster;
        create_s;
        tr = Span.create ~on:traced;
        lat = Stats.create ();
        dispatches =
          Array.init sites (fun s ->
              Camelot_mach.Dispatch.create ~shards ~executors_per_shard:executors
                (Cluster.node cluster s).Cluster.site);
        arrivals =
          Array.fold_left
            (fun n (a : Inputs.arrival) -> if a.at_ms >= warmup_ms then n + 1 else n)
            0 schedule;
        submitted = 0;
        shed = 0;
        committed = 0;
        aborted = 0;
        timed_out = 0;
        finished = 0;
        finished_measured = 0;
      }
    in
    let exec (a : Inputs.arrival) ~arrived ~measured =
      let tm = Cluster.tranman cluster a.origin and tr = r.tr in
      let t_exec = Span.now tr in
      let tid = begin_txn tr tm in
      let txn = Tid.key tid in
      Span.add tr ~txn Span.Dispatch_wait arrived t_exec;
      let credit_site = if a.remote then (a.origin + 1) mod sites else a.origin in
      let result =
        match
          op tr cluster ~origin:a.origin tid ~site:a.origin (Ds.Add (account a.debit, -1));
          op tr cluster ~origin:a.origin tid ~site:credit_site (Ds.Add (account a.credit, 1));
          commit_txn tr tm ~protocol:Protocol.Two_phase tid
        with
        | outcome -> `Done outcome
        | exception Ds.Lock_timeout _ ->
            Tranman.abort tm tid;
            `Timed_out
      in
      let t1 = Fiber.now () in
      Span.add tr ~txn Span.Txn arrived t1;
      r.finished <- r.finished + 1;
      if measured then begin
        r.finished_measured <- r.finished_measured + 1;
        match result with
        | `Done Protocol.Committed ->
            r.committed <- r.committed + 1;
            Stats.add r.lat (t1 -. arrived)
        | `Done Protocol.Aborted -> r.aborted <- r.aborted + 1
        | `Timed_out -> r.timed_out <- r.timed_out + 1
      end
    in
    let engine = Cluster.engine cluster in
    let rec arm i =
      if i < Array.length schedule then
        Engine.schedule_at engine ~time:schedule.(i).Inputs.at_ms (fun () ->
            arm (i + 1);
            let a = schedule.(i) in
            let arrived = Engine.now engine in
            let measured = arrived >= warmup_ms in
            if
              Camelot_mach.Dispatch.submit_key r.dispatches.(a.origin) ~key:a.debit (fun () ->
                  exec a ~arrived ~measured)
            then (if measured then r.submitted <- r.submitted + 1)
            else if measured then r.shed <- r.shed + 1)
    in
    arm 0;
    r

  let rung ~seed rate_tps =
    let r = start ~seed ~traced:false ~rate_tps ~horizon_ms:ladder_horizon_ms ~warmup_ms:0.0 in
    Cluster.run ~until:ladder_horizon_ms r.cluster;
    {
      Calc.offered_tps = rate_tps;
      p99_ms =
        (if Stats.count r.lat = 0 then infinity
         else (Calc.percentile (Stats.samples r.lat) 0.99).value);
      arrivals = r.arrivals;
      backlog = r.submitted - r.finished_measured;
    }

  let rep ~seed ~traced ~ladder =
    let live0 = live_heap_mb () in
    let t_setup = clock () in
    let r = start ~seed ~traced ~rate_tps:reference_tps ~horizon_ms ~warmup_ms in
    let c = r.cluster in
    Cluster.run ~until:warmup_ms c;
    let setup_s = clock () -. t_setup in
    let f0 = r.finished and m0 = mark c in
    let run_s = timed_run c ~until:(horizon_ms +. drain_ms) in
    let m1 = mark c in
    let live_mb = live_heap_mb () -. live0 in
    let balance = ref 0 in
    for s = 0 to sites - 1 do
      for k = 0 to keys - 1 do
        balance := !balance + Ds.peek (Cluster.server c s) (account k)
      done
    done;
    let max_depth =
      Array.fold_left (fun a d -> max a (Camelot_mach.Dispatch.max_depth d)) 0 r.dispatches
    in
    let ladder = if ladder then List.map (rung ~seed) ladder_tps else [] in
    {
      create_s = r.create_s;
      setup_s;
      run_s;
      restart_s = 0.0;
      finished = r.finished - f0;
      events = m1.m_events - m0.m_events;
      words = m1.m_words -. m0.m_words;
      live_mb;
      outcomes =
        outcomes ~attempted:r.arrivals ~committed:r.committed ~aborted:r.aborted
          ~timed_out:r.timed_out ~shed:r.shed;
      latencies = Stats.samples r.lat;
      window_ms = horizon_ms -. warmup_ms;
      layers =
        layer_counters c ~txns:r.finished ~timeouts:r.timed_out
        @ [ ("mach.dispatch_max_depth", float_of_int max_depth) ];
      ladder;
      checks =
        [
          ("every arrival finished after the drain", r.finished_measured + r.shed = r.arrivals);
          ("account balances sum to zero", !balance = 0);
        ];
      spans = r.tr;
    }
end
