open Camelot_sim

exception Rpc_failure of { callee : Site.id; reason : string }

let rpc_timeout_ms = 500.0

(* An IPC is partly CPU (message copy, scan, kernel entry) and partly
   scheduling wait during which the processor serves others. *)
let charge_ipc site cost =
  let f = (Site.model site).Cost_model.ipc_cpu_fraction in
  Site.cpu_use site (f *. cost);
  let wait = (1.0 -. f) *. cost in
  if wait > 0.0 then Camelot_sim.Fiber.sleep wait

let local_ipc site = charge_ipc site (Site.model site).Cost_model.local_ipc_ms

let local_ipc_to_server site =
  charge_ipc site (Site.model site).Cost_model.local_ipc_to_server_ms

let oneway_ipc site = charge_ipc site (Site.model site).Cost_model.local_oneway_ipc_ms

let outofline_ipc site =
  charge_ipc site (Site.model site).Cost_model.local_outofline_ipc_ms

let call_local site handler =
  local_ipc_to_server site;
  let model = Site.model site in
  Site.cpu_use site model.Cost_model.server_cpu_ms;
  handler ()

let fail callee reason =
  (* the caller's connection times out before it learns of the break *)
  Fiber.sleep rpc_timeout_ms;
  raise (Rpc_failure { callee; reason })

let half_wire client model =
  let open Cost_model in
  let jitter = Rng.exponential (Site.rng client) ~mean:model.rpc_jitter_ms in
  Fiber.sleep ((model.netmsg_rpc_ms /. 2.0) +. (jitter /. 2.0))

(* The direct path: the handler runs on the client's own fiber, which
   is sound because both sites share an engine. The clock is read at
   every leg boundary, but the five §4.1 leg durations are only worked
   out when [legs] asks for them. *)
let call_colocated ?legs ~client ~server handler =
  let model = Site.model client in
  let open Cost_model in
  if not (Site.colocated client server) then
    invalid_arg "Rpc.call_remote_accounted: sites on different shards";
  if not (Site.alive server) then fail (Site.id server) "server site down";
  let incarnation = Site.incarnation server in
  let c_eng = Site.engine client and s_eng = Site.engine server in
  let start = Engine.now c_eng in
  Site.cpu_use client model.comman_ipc_ms;
  let client_cpu_start = Engine.now c_eng in
  Site.cpu_use client model.comman_cpu_ms;
  let wire_start = Engine.now c_eng in
  half_wire client model;
  if (not (Site.alive server)) || Site.incarnation server <> incarnation then
    fail (Site.id server) "server crashed before processing";
  let server_start = Engine.now s_eng in
  Site.cpu_use server model.comman_cpu_ms;
  let server_ipc_start = Engine.now s_eng in
  Site.cpu_use server model.comman_ipc_ms;
  let handler_start = Engine.now s_eng in
  let result = handler () in
  let handler_end = Engine.now s_eng in
  if (not (Site.alive server)) || Site.incarnation server <> incarnation then
    fail (Site.id server) "server crashed before reply";
  half_wire client model;
  (match legs with
  | None -> ()
  | Some legs ->
      let t_server_cpu = server_ipc_start -. server_start in
      let t_server_ipc = handler_start -. server_ipc_start in
      let t_handler = handler_end -. handler_start in
      legs.(0) <- client_cpu_start -. start;
      legs.(1) <- wire_start -. client_cpu_start;
      legs.(2) <-
        Engine.now c_eng -. wire_start -. t_server_cpu -. t_server_ipc
        -. t_handler;
      legs.(3) <- t_server_cpu;
      legs.(4) <- t_server_ipc);
  result

let call_remote_accounted ~client ~server handler =
  let legs = Array.make 5 0.0 in
  let result = call_colocated ~legs ~client ~server handler in
  let labels = List.map fst (Cost_model.rpc_legs (Site.model client)) in
  (result, List.combine labels (Array.to_list legs))

(* Cross-shard RPC. The accounted path above runs the handler on the
   client's own fiber, which is only sound when both sites share an
   engine; across domains the call becomes messages through the
   fabric. The request leg posts a closure to the server's shard that
   spawns a handler fiber in the server site's group — so a server
   crash kills it and the client, hearing nothing, times out like a
   broken connection. The reply (or the handler's exception) posts
   back and resumes the client. Wire legs and CornMan CPU charges
   mirror the §4.1 decomposition; each half-wire is at least
   [netmsg_rpc_ms / 2], which is what lets the fabric's conservative
   lookahead count RPCs among its bounded-delay traffic. *)
let call_remote_fabric fabric ~client ~server handler =
  let model = Site.model client in
  let open Cost_model in
  if not (Site.alive server) then fail (Site.id server) "server site down";
  Site.cpu_use client model.comman_ipc_ms;
  Site.cpu_use client model.comman_cpu_ms;
  let c_eng = Site.engine client in
  let c_shard = Site.shard client and s_shard = Site.shard server in
  let request_arrives =
    let jitter = Rng.exponential (Site.rng client) ~mean:model.rpc_jitter_ms in
    Engine.now c_eng +. (model.netmsg_rpc_ms /. 2.0) +. (jitter /. 2.0)
  in
  let outcome =
    Fiber.suspend (fun resumer ->
        let cancel_timeout =
          Engine.schedule_timer c_eng ~delay:rpc_timeout_ms (fun () ->
              if Fiber.is_pending resumer then Fiber.resume resumer (Ok None))
        in
        (* Runs on the server's shard once the handler finishes; the
           answer rides the reply half-wire home, where it lands back
           on the client's engine. *)
        let reply result =
          let s_eng = Site.engine server in
          let jitter =
            Rng.exponential (Site.rng server) ~mean:model.rpc_jitter_ms
          in
          let arrives =
            Engine.now s_eng +. (model.netmsg_rpc_ms /. 2.0) +. (jitter /. 2.0)
          in
          Domains.post fabric ~src:s_shard ~dst:c_shard ~time:arrives
            (fun () ->
              cancel_timeout ();
              if Fiber.is_pending resumer then
                Fiber.resume resumer (Ok (Some result)))
        in
        Domains.post fabric ~src:c_shard ~dst:s_shard ~time:request_arrives
          (fun () ->
            if Site.alive server then
              Site.spawn server ~name:"rpc-handler" (fun () ->
                  Site.cpu_use server model.comman_cpu_ms;
                  Site.cpu_use server model.comman_ipc_ms;
                  match handler () with
                  | v -> reply (Ok v)
                  | exception e -> reply (Error e))))
  in
  match outcome with
  | None ->
      raise (Rpc_failure { callee = Site.id server; reason = "rpc timeout" })
  | Some (Ok v) -> v
  | Some (Error e) -> raise e

let call_remote ~client ~server handler =
  match Site.fabric client with
  | Some fabric when not (Site.colocated client server) ->
      call_remote_fabric fabric ~client ~server handler
  | _ -> call_colocated ~client ~server handler
