(* One default router (sequential, as [Router.create] builds it) driven
   through real BGP sessions on the simulation engine. Neighbors and
   experiments are remote session endpoints owned here: they send only
   pre-encoded wire bytes ([Session.send_encoded]) and frames, and decode
   what the router sends them into plain tables that [Check] compares with
   the model of the generated inputs.

   A phase is timed from its first send until the engine has run past the
   last delivery (a [settle] of simulated time after the phase's sends), so
   it ends only once the peers have received and decoded the router's
   output.

   With [traced], the benchmark wraps its calls into the router in
   {!Tracer} spans: the link receive callbacks of both session ends, the
   router's neighbor UPDATE handler (re-installed to call
   [Router.process_neighbor_update] inside a span), and one
   [Router.flush_reexports] per engine tick, scheduled ahead of the
   router's own tick flush so that the latter finds the queues empty. *)

open Netcore
open Bgp
module R = Vbgp.Router
module Engine = Sim.Engine

type nbr = {
  id : int;
  vmac : Mac.t;
  vip : Ipv4.t;
  export_id : int;
  pair : Sim.Bgp_wire.pair;
  heard : (int, int) Hashtbl.t;
      (** experiment routes this neighbor holds: prefix key -> origin ASN *)
  mutable heard_events : int;
}

type exp = {
  e : int;
  grant : Vbgp.Control_enforcer.grant;
  mutable conn : Sim.Bgp_wire.pair option;  (** once connected *)
  table : (int, int) Hashtbl.t;
      (** the ADD-PATH table: route key (prefix, path id) -> next hop *)
  mutable events : int;  (** NLRI received, announced or withdrawn *)
  mutable announced : int;
  mutable eor : int;
}

(* The peers' data-plane endpoints check each packet as it arrives and keep
   nothing, as a real receiver would not (kept packets would be promoted by
   the collector and charged to the router). *)
type capture = {
  mutable size : int;  (** packet size of the batch being forwarded *)
  mutable batch : int array;  (** the flow of each frame of that batch *)
  mutable fwd_n : int;  (** frames of that batch delivered so far *)
  in_next : int array;  (** per listener: inbound packets delivered so far *)
}

type t = {
  g : Gen.t;
  traced : bool;
  engine : Engine.t;
  router : R.t;
  nbrs : nbr array;
  exps : exp array;
  cap : capture;
  mutable flush_pending : bool;
  fwd_toggle : int array;  (** per neighbor: next re-announcement variant *)
}

let settle = 0.5

(* Past the experiment LAN's latency (0.1 ms). *)
let lan_settle = 0.001

(* Spacing of sends made one per engine tick. *)
let tick = 1e-4

(* Counts taken by the traced run, across every world it builds: engine
   events and the highest [Engine.pending] seen by the traced engine loop,
   NLRI through [Router.process_neighbor_update], NLRI sent during traced
   flushes. *)
let engine_events = ref 0
let pending_max = ref 0
let nlri_in = ref 0
let flush_nlri_out = ref 0

let connected w = List.filter (fun x -> x.conn <> None) (Array.to_list w.exps)
let active x = (Option.get x.conn).Sim.Bgp_wire.active

(* Run the engine for [dt] simulated seconds, up to a sentinel event, as
   [Engine.run_until] does, probing the host between events
   ([Host.tick]). Traced, every event is a span. *)
let run_for w dt =
  let stop = ref false in
  Engine.run_after w.engine dt (fun () -> stop := true);
  if not !Tracer.on then
    while not !stop do
      ignore (Engine.step w.engine);
      Host.tick ()
    done
  else
    while not !stop do
      let p = Engine.pending w.engine in
      if p > !pending_max then pending_max := p;
      Tracer.enter Tracer.Engine;
      ignore (Engine.step w.engine);
      Tracer.exit ();
      incr engine_events;
      Host.tick ()
    done

let nlri_of (u : Msg.update) = List.length u.Msg.announced + List.length u.Msg.withdrawn

(* One flush per engine tick, queued ahead of the router's own. *)
let schedule_flush w =
  if not w.flush_pending then begin
    w.flush_pending <- true;
    Engine.run_after w.engine 0. (fun () ->
        w.flush_pending <- false;
        let c = R.counters w.router in
        let before = c.R.nlri_to_experiments + c.R.nlri_to_neighbors in
        Tracer.enter Tracer.Flush;
        R.flush_reexports w.router;
        Tracer.exit ();
        flush_nlri_out :=
          !flush_nlri_out + c.R.nlri_to_experiments + c.R.nlri_to_neighbors - before)
  end

let is_update d = String.length d > 18 && d.[18] = '\002'

let traced_receive layer session d =
  if !Tracer.on then begin
    Tracer.enter layer;
    Session.receive_bytes session d;
    Tracer.exit ()
  end
  else Session.receive_bytes session d

(* -- wiring ------------------------------------------------------------------ *)

(* An experiment's LAN station receiving a frame. *)
let record_frame w e (frame : Eth.t) =
  match frame.Eth.ethertype with
  | Eth.Ipv4 ->
      let cap = w.cap in
      let expect = w.g.Gen.inbound_of in
      if e >= Array.length expect || cap.in_next.(e) >= Array.length expect.(e) then
        Check.flag "inbound: unexpected frame at experiment %d" e
      else begin
        let ib = w.g.Gen.inbound.(expect.(e).(cap.in_next.(e))) in
        cap.in_next.(e) <- cap.in_next.(e) + 1;
        match Check.inbound_problem ~vmac:w.nbrs.(ib.Gen.i_nbr).vmac ib frame with
        | None -> ()
        | Some m -> Check.flag "%s" m
      end
  | _ -> ()

let connect_exp w x =
  let pair =
    Tracer.span Tracer.Wiring (fun () ->
        R.connect_experiment w.router ~grant:x.grant ~mac:(Gen.exp_mac x.e) ())
  in
  let peer = pair.Sim.Bgp_wire.active and router_side = pair.Sim.Bgp_wire.passive in
  Session.set_handlers peer
    {
      Session.null_handlers with
      on_update =
        (fun u ->
          if Msg.is_end_of_rib u then x.eor <- x.eor + 1
          else begin
            let key (n : Msg.nlri) =
              Gen.route_key n.Msg.prefix (Option.value n.Msg.path_id ~default:0)
            in
            List.iter (fun n -> Hashtbl.remove x.table (key n)) u.Msg.withdrawn;
            (match u.Msg.announced with
            | [] -> ()
            | l ->
                let nh =
                  match Attr.next_hop u.Msg.attrs with Some a -> Gen.ip_int a | None -> -1
                in
                List.iter (fun n -> Hashtbl.replace x.table (key n) nh) l);
            x.events <- x.events + nlri_of u;
            x.announced <- x.announced + List.length u.Msg.announced
          end);
    };
  Sim.Lan.attach (R.experiment_lan w.router) (Gen.exp_mac x.e) (fun frame ->
      if !Tracer.on then begin
        Tracer.enter Tracer.Lan_receive;
        record_frame w x.e frame;
        Tracer.exit ()
      end
      else record_frame w x.e frame);
  if w.traced then begin
    let link = pair.Sim.Bgp_wire.link in
    Sim.Link.attach link Sim.Link.A (traced_receive Tracer.Peer_receive peer);
    Sim.Link.attach link Sim.Link.B (fun d ->
        if !Tracer.on && is_update d then begin
          schedule_flush w;
          traced_receive Tracer.Control_out router_side d
        end
        else traced_receive Tracer.Router_receive router_side d)
  end;
  Sim.Bgp_wire.start pair;
  x.conn <- Some pair

(* Re-install the router's neighbor UPDATE handler so that
   [Router.process_neighbor_update] runs inside a span. The benchmark's
   neighbors never send End-of-RIB and their sessions never drop, so the
   router's own handler would do exactly this; anything else is an error. *)
let trace_neighbor_handler w nb =
  Session.set_handlers nb.pair.Sim.Bgp_wire.passive
    {
      Session.on_update =
        (fun u ->
          if Msg.is_end_of_rib u then failwith "unexpected End-of-RIB from a neighbor";
          if !Tracer.on then begin
            schedule_flush w;
            nlri_in := !nlri_in + nlri_of u;
            Tracer.enter Tracer.Control_in;
            R.process_neighbor_update w.router ~neighbor_id:nb.id u;
            Tracer.exit ()
          end
          else R.process_neighbor_update w.router ~neighbor_id:nb.id u);
      on_established = (fun () -> failwith "neighbor session re-established");
      on_down = (fun _ -> failwith "neighbor session went down");
      on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
    }

let send_msg w (m : Gen.msg) =
  Session.send_encoded w.nbrs.(m.Gen.nbr).pair.Sim.Bgp_wire.active m.Gen.update m.Gen.wire

(* Set-up: build the router, its neighbors and listening experiments, bring
   every session to Established and transfer every neighbor's table. *)
let create (g : Gen.t) ~traced =
  let s = g.Gen.shape in
  let engine = Engine.create () in
  let cap =
    {
      size = 64;
      batch = [||];
      fwd_n = 0;
      in_next = Array.make s.Gen.listeners 0;
    }
  in
  let router =
    Tracer.span Tracer.Wiring (fun () ->
        let router =
          R.create ~engine ~name:"vbench" ~asn:(Asn.of_int Gen.router_asn)
            ~router_id:(Ipv4.of_string_exn "10.255.0.1")
            ~primary_ip:(Ipv4.of_string_exn "10.255.0.1")
            ~local_pool:(Prefix.of_string_exn "127.65.0.0/16")
            ~global_pool:
              (Vbgp.Addr_pool.create ~base:(Prefix.of_string_exn "127.127.0.0/16")
                 ~mac_pool:0x7f)
            ()
        in
        R.activate router;
        (* PEERING's default data-plane policy (§4.7), as a PoP installs it. *)
        Vbgp.Data_enforcer.add_filter (R.data_enforcer router)
          (Vbgp.Data_enforcer.source_validation
             ~owner_of:(R.allocation_owner_of router) ());
        router)
  in
  let deliver n pkt =
    let j = cap.fwd_n in
    cap.fwd_n <- j + 1;
    if j >= Array.length cap.batch then Check.flag "forward: more deliveries than frames"
    else
      match Check.forward_problem g ~size:cap.size ~flow:cap.batch.(j) ~nbr:n pkt with
      | None -> ()
      | Some m -> Check.flag "%s" m
  in
  let nbrs =
    Array.init (Gen.neighbors s) (fun n ->
        let ip = Gen.nbr_ip n in
        let id, pair =
          Tracer.span Tracer.Wiring (fun () ->
              R.add_neighbor router ~asn:(Asn.of_int (Gen.nbr_asn n)) ~ip
                ~kind:(if n < s.Gen.transits then Vbgp.Neighbor.Transit else Vbgp.Neighbor.Peer)
                ~remote_id:ip ~deliver:(deliver n) ())
        in
        let info = (Option.get (R.neighbor router id)).R.info in
        let nb =
          {
            id;
            vmac = info.Vbgp.Neighbor.virtual_mac;
            vip = info.Vbgp.Neighbor.virtual_ip;
            export_id = R.export_id router ~neighbor_id:id;
            pair;
            heard = Hashtbl.create 64;
            heard_events = 0;
          }
        in
        Session.set_handlers pair.Sim.Bgp_wire.active
          {
            Session.null_handlers with
            on_update =
              (fun u ->
                if not (Msg.is_end_of_rib u) then begin
                  List.iter
                    (fun (x : Msg.nlri) -> Hashtbl.remove nb.heard (Gen.prefix_key x.Msg.prefix))
                    u.Msg.withdrawn;
                  (match u.Msg.announced with
                  | [] -> ()
                  | l ->
                      let origin =
                        match Option.bind (Attr.as_path u.Msg.attrs) Aspath.origin with
                        | Some a -> Asn.to_int a
                        | None -> -1
                      in
                      List.iter
                        (fun (x : Msg.nlri) ->
                          Hashtbl.replace nb.heard (Gen.prefix_key x.Msg.prefix) origin)
                        l);
                  nb.heard_events <- nb.heard_events + nlri_of u
                end);
          };
        if traced then begin
          let link = pair.Sim.Bgp_wire.link in
          Sim.Link.attach link Sim.Link.A
            (traced_receive Tracer.Peer_receive pair.Sim.Bgp_wire.active);
          Sim.Link.attach link Sim.Link.B
            (traced_receive Tracer.Router_receive pair.Sim.Bgp_wire.passive)
        end;
        Sim.Bgp_wire.start pair;
        nb)
  in
  let exps =
    Array.init (Gen.experiments s) (fun e ->
        {
          e;
          grant =
            Vbgp.Control_enforcer.grant
              ~asns:[ Asn.of_int (Gen.exp_asn e) ]
              ~prefixes:[ Gen.exp_alloc e ]
              ~caps:Vbgp.Experiment_caps.(default |> with_update_budget max_int)
              (Gen.exp_name e);
          conn = None;
          table = Hashtbl.create (if e < s.Gen.listeners then Gen.route_count g else 16);
          events = 0;
          announced = 0;
          eor = 0;
        })
  in
  let w =
    {
      g;
      traced;
      engine;
      router;
      nbrs;
      exps;
      cap;
      flush_pending = false;
      fwd_toggle = Array.make (Array.length nbrs) 0;
    }
  in
  for e = 0 to s.Gen.listeners - 1 do
    connect_exp w exps.(e)
  done;
  run_for w 1.0;
  Array.iter
    (fun nb ->
      let s = nb.pair.Sim.Bgp_wire.active in
      if not (Session.established s && Session.established nb.pair.Sim.Bgp_wire.passive)
      then failwith "set-up: a neighbor session did not reach Established";
      if Session.send_params s <> Gen.params then
        failwith "set-up: neighbor session parameters differ from the encoded inputs";
      if traced then trace_neighbor_handler w nb)
    nbrs;
  List.iter
    (fun x ->
      if not (Session.established (active x)) then
        failwith "set-up: an experiment session did not reach Established")
    (connected w);
  Tracer.span Tracer.Peer_send (fun () -> Array.iter (send_msg w) g.Gen.transfer);
  run_for w settle;
  w

(* -- inputs bound to router identities ----------------------------------- *)

type bound = {
  steer : (Msg.update * string) array array array;
      (** variant -> experiment -> encoded steering UPDATEs *)
  anchors : (Msg.update * string) array;
  frames_64 : Eth.t array array;  (** forwarding batches *)
  frames_1500 : Eth.t array array;
  batch_flows : int array array;  (** flow index of every frame of a batch *)
}

(* Every experiment negotiates the same session parameters; the first
   listener's encode every experiment's UPDATEs ([sync] checks the last
   experiment's when it connects). *)
let exp_update w u =
  (u, Codec.encode ~params:(Session.send_params (active w.exps.(0))) (Msg.Update u))

let exp_attrs e ~prepends ~med ~communities =
  Attr.origin_attrs
    ~as_path:(Aspath.of_asns (List.init (1 + prepends) (fun _ -> Asn.of_int (Gen.exp_asn e))))
    ~next_hop:(Prefix.host (Gen.exp_prefix e 0) 1)
    ()
  |> Attr.with_med med
  |> Attr.with_communities communities

let steer_update w e (op : Gen.steer_op) =
  let ctl_asn = R.control_asn w.router in
  let nlris slots = List.map (fun j -> Msg.nlri (Gen.exp_prefix e j)) slots in
  match op with
  | Gen.Withdraw slots -> Msg.update ~withdrawn:(nlris slots) ()
  | Gen.Announce { slots; white; black; prepends; med } ->
      let communities =
        List.map (fun i -> Vbgp.Export_control.announce_to ~ctl_asn w.nbrs.(i).export_id) white
        @ List.map (fun i -> Vbgp.Export_control.block ~ctl_asn w.nbrs.(i).export_id) black
      in
      Msg.update ~attrs:(exp_attrs e ~prepends ~med ~communities) ~announced:(nlris slots) ()

let bind w =
  let g = w.g and s = w.g.Gen.shape in
  let steer =
    Array.map
      (fun per_exp ->
        Array.mapi
          (fun e ops -> Array.map (fun op -> exp_update w (steer_update w e op)) ops)
          per_exp)
      g.Gen.steer
  in
  let anchors =
    Array.map
      (fun x ->
        exp_update w
          (Msg.update
             ~attrs:(exp_attrs x.e ~prepends:0 ~med:0 ~communities:[])
             ~announced:[ Msg.nlri (Gen.exp_prefix x.e 0) ]
             ()))
      w.exps
  in
  let n_flows = Array.length g.Gen.flows in
  let frame wire (f : Gen.flow) =
    { Eth.dst = w.nbrs.(f.Gen.f_nbr).vmac; src = Gen.exp_mac f.Gen.f_exp; ethertype = Eth.Ipv4; payload = wire f }
  in
  let per_flow_64 = Array.map (frame (fun f -> f.Gen.wire_64)) g.Gen.flows in
  let per_flow_1500 = Array.map (frame (fun f -> f.Gen.wire_1500)) g.Gen.flows in
  let n_batches frames = (frames + s.Gen.fwd_batch - 1) / s.Gen.fwd_batch in
  let most = max (n_batches s.Gen.frames_64) (n_batches s.Gen.frames_1500) in
  let batch_flows =
    Array.init most (fun b -> Array.init s.Gen.fwd_batch (fun j -> ((b * s.Gen.fwd_batch) + j) mod n_flows))
  in
  let batches per_flow frames =
    Array.init (n_batches frames) (fun b -> Array.map (fun f -> per_flow.(f)) batch_flows.(b))
  in
  {
    steer;
    anchors;
    frames_64 = batches per_flow_64 s.Gen.frames_64;
    frames_1500 = batches per_flow_1500 s.Gen.frames_1500;
    batch_flows;
  }

(* The listeners announce their anchors (untagged, never withdrawn), the
   destinations of inbound traffic. *)
let announce_anchors w (b : bound) =
  for e = 0 to w.g.Gen.shape.Gen.listeners - 1 do
    let u, wire = b.anchors.(e) in
    Session.send_encoded (active w.exps.(e)) u wire
  done;
  run_for w settle

(* -- phases --------------------------------------------------------------- *)

type measure = {
  wall_ns : int;  (** probes left out, as in [cpu_s] *)
  cpu_s : float;  (** user + system, [Unix.times] *)
  scaled_ns : float;  (** on the scaled clock ([Host]) *)
  items : int;  (** what the phase's metric counts *)
  attempted : int;
  failed : int;
  covered_ns : int;  (** wall time inside top-level spans (traced) *)
  parts : (float * int) list;
      (** (scaled ns, items) of each separately timed part, in run order; a
          phase timed as one piece has one part *)
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()] timed: (wall ns, CPU s, scaled ns, ns covered by top-level
   spans), with probes left out. *)
let timed f =
  ignore (Tracer.take_covered ());
  let c0 = cpu () and p0 = !Host.probe_ns in
  let t0 = Host.real_ns () and s0 = Host.scaled_ns () in
  f ();
  let t1 = Host.real_ns () and s1 = Host.scaled_ns () in
  let c1 = cpu () in
  (t1 - t0, c1 -. c0 -. (float_of_int (!Host.probe_ns - p0) /. 1e9), s1 -. s0, Tracer.take_covered ())

let measure ~items ?(attempted = items) ?parts ~failed (wall_ns, cpu_s, scaled_ns, covered_ns) =
  let parts = match parts with Some p -> p | None -> [ (scaled_ns, items) ] in
  { wall_ns; cpu_s; scaled_ns; items; attempted; failed; covered_ns; parts }

(* Frames or packets per part of a forwarding or inbound phase: enough
   calls that every part spans many minor collections. *)
let part_items = 32_768

let nids w = Array.map (fun nb -> nb.id) w.nbrs
let vips w = Array.map (fun nb -> nb.vip) w.nbrs

let check_exp_tables w ~absent =
  List.fold_left
    (fun acc x ->
      acc
      + Check.exp_table w.g ~absent ~nid:(nids w) ~vip:(vips w) ~name:(Gen.exp_name x.e)
          x.table)
    0 (connected w)

(* Set-up, as a phase: the route transfer is what it attempts. *)
let setup g ~traced =
  let w = ref None in
  Host.probe ();
  let t = timed (fun () -> w := Some (create g ~traced)) in
  let w = Option.get !w in
  let routes = Gen.route_count g in
  let failed = check_exp_tables w ~absent:(-2) in
  (w, measure ~items:routes ~attempted:(routes * g.Gen.shape.Gen.listeners) ~failed t)

let sum_links w sel =
  Array.fold_left (fun acc nb -> acc + sel nb) 0 w.nbrs

let exp_wire_bytes w =
  List.fold_left
    (fun acc x -> acc + Sim.Link.bytes_carried (Option.get x.conn).Sim.Bgp_wire.link Sim.Link.B)
    0 (connected w)

let exp_route_events w = List.fold_left (fun acc (x : exp) -> acc + x.events) 0 (connected w)
let nbr_wire_bytes w = sum_links w (fun nb -> Sim.Link.bytes_carried nb.pair.Sim.Bgp_wire.link Sim.Link.B)
let nbr_route_events w = sum_links w (fun nb -> nb.heard_events)

(* Phase 2: neighbor churn, variant [k] of the generated batches. *)
let churn w k =
  let g = w.g in
  let msgs = g.Gen.churn.(k) in
  let exps = connected w in
  let before = List.map (fun x -> x.events) exps in
  Host.probe ();
  let t =
    timed (fun () ->
        if g.Gen.shape.Gen.churn_packed then begin
          Tracer.span Tracer.Peer_send (fun () -> Array.iter (send_msg w) msgs);
          run_for w settle
        end
        else begin
          Tracer.span Tracer.Peer_send (fun () ->
              Array.iteri
                (fun i m ->
                  Engine.run_after w.engine (float_of_int i *. tick) (fun () ->
                      Tracer.span Tracer.Peer_send (fun () -> send_msg w m)))
                msgs);
          run_for w ((float_of_int (Array.length msgs) *. tick) +. settle)
        end)
  in
  let expected = g.Gen.churn_events.(k) in
  let size = Check.present_count g ~absent:(k mod 2) in
  let failed =
    Check.counting (fun () ->
        List.iter2
          (fun x b ->
            let got = x.events - b in
            if got <> expected then
              Check.flag "churn: %s received %d route events, expected %d" (Gen.exp_name x.e) got
                expected;
            if Hashtbl.length x.table <> size then
              Check.flag "churn: %s holds %d routes, expected %d" (Gen.exp_name x.e)
                (Hashtbl.length x.table) size)
          exps before)
  in
  measure ~items:expected ~failed t

(* Phase 3: full-table sync to the last experiment, on connect the first
   time and by ROUTE-REFRESH after that. *)
let sync w ~absent =
  let x = w.exps.(Array.length w.exps - 1) in
  let ann0 = x.announced and eor0 = x.eor in
  Host.probe ();
  let t =
    timed (fun () ->
        (match x.conn with
        | None ->
            connect_exp w x;
            run_for w 1.0;
            if Session.send_params (active x) <> Session.send_params (active w.exps.(0)) then
              failwith "sync: experiment session parameters differ"
        | Some _ ->
            Tracer.span Tracer.Peer_send (fun () -> Session.send_route_refresh (active x));
            run_for w settle))
  in
  let routes = x.announced - ann0 in
  let expected = Check.present_count w.g ~absent in
  let failed =
    Check.counting (fun () ->
        if x.eor <> eor0 + 1 then Check.flag "sync: %d End-of-RIB received" (x.eor - eor0);
        if routes <> expected then
          Check.flag "sync: %d routes delivered, expected %d" routes expected)
  in
  measure ~items:routes ~attempted:expected ~failed t

(* Phase 4: every connected experiment sends its steering UPDATEs of
   variant [k], one per engine tick. *)
let steer w (b : bound) (st : Check.steering) k =
  let exps = connected w in
  let n_up = w.g.Gen.shape.Gen.steer_updates in
  let updates = b.steer.(k) in
  let rejected () = snd (Vbgp.Control_enforcer.stats (R.control_enforcer w.router)) in
  let rej0 = rejected () in
  Host.probe ();
  let t =
    timed (fun () ->
        Tracer.span Tracer.Peer_send (fun () ->
            for j = 0 to n_up - 1 do
              Engine.run_after w.engine (float_of_int j *. tick) (fun () ->
                  Tracer.span Tracer.Peer_send (fun () ->
                      List.iter
                        (fun x ->
                          let u, wire = updates.(x.e).(j) in
                          Session.send_encoded (active x) u wire)
                        exps))
            done);
        run_for w ((float_of_int n_up *. tick) +. settle))
  in
  List.iter (fun x -> Check.apply st x.e w.g.Gen.steer.(k).(x.e)) exps;
  let failed =
    Check.counting (fun () ->
        let r = rejected () - rej0 in
        if r > 0 then Check.flag "steer: %d experiment UPDATEs rejected" r)
    + Check.neighbor_routes st
        ~export_ids:(Array.map (fun nb -> nb.export_id) w.nbrs)
        (Array.map (fun nb -> nb.heard) w.nbrs)
  in
  measure ~items:(n_up * List.length exps) ~failed t

(* Phase 5: experiment frames through [Router.forward_frames]; only the
   calls are timed. *)
let forward w (b : bound) size =
  let batches = if size = 64 then b.frames_64 else b.frames_1500 in
  let layer = if size = 64 then Tracer.Forward_64 else Tracer.Forward_1500 in
  let wall = ref 0 and cpu_s = ref 0. and scaled = ref 0. and covered = ref 0 in
  let frames = ref 0 and failed = ref 0 in
  let parts = ref [] and part_ns = ref 0. and part_n = ref 0 in
  let frames_all = Array.fold_left (fun acc b -> acc + Array.length b) 0 batches in
  w.cap.size <- size;
  Host.probe ();
  Array.iteri
    (fun bi batch ->
      w.cap.batch <- b.batch_flows.(bi);
      w.cap.fwd_n <- 0;
      let before = !Check.failures in
      Host.tick ();
      let dt, c, sc, cov =
        timed (fun () ->
            if !Tracer.on then begin
              Tracer.enter layer;
              R.forward_frames w.router batch;
              Tracer.exit ()
            end
            else R.forward_frames w.router batch)
      in
      wall := !wall + dt;
      cpu_s := !cpu_s +. c;
      scaled := !scaled +. sc;
      covered := !covered + cov;
      frames := !frames + Array.length batch;
      part_ns := !part_ns +. sc;
      part_n := !part_n + Array.length batch;
      let left = frames_all - !frames in
      if (!part_n >= part_items && left >= part_items / 2) || left = 0 then begin
        parts := (!part_ns, !part_n) :: !parts;
        part_ns := 0.;
        part_n := 0
      end;
      if w.cap.fwd_n <> Array.length batch then
        Check.flag "forward %dB: %d frames sent, %d delivered" size (Array.length batch)
          w.cap.fwd_n;
      failed := !failed + !Check.failures - before;
      if w.g.Gen.shape.Gen.fwd_updates_between then begin
        let n = w.g.Gen.flows.(b.batch_flows.(bi).(0)).Gen.f_nbr in
        let ups = w.g.Gen.fwd_updates.(n) in
        if ups <> [||] then begin
          send_msg w ups.(w.fwd_toggle.(n) land 1);
          w.fwd_toggle.(n) <- w.fwd_toggle.(n) + 1;
          run_for w settle
        end
      end)
    batches;
  measure ~items:!frames ~parts:(List.rev !parts) ~failed:!failed (!wall, !cpu_s, !scaled, !covered)

(* Phase 6: Internet packets from neighbors to the listeners' anchors, in
   batches the size of a forwarding batch; the engine runs each batch
   until the LAN stations have it, so packets arrive as a stream rather
   than one queue of every packet. *)
let inbound w =
  let before = !Check.failures in
  Array.fill w.cap.in_next 0 (Array.length w.cap.in_next) 0;
  let parts = ref [] in
  Host.probe ();
  let t =
    timed (fun () ->
        let packets = w.g.Gen.inbound and batch = w.g.Gen.shape.Gen.fwd_batch in
        let i = ref 0 and part_t0 = ref (Host.scaled_ns ()) and part_i0 = ref 0 in
        while !i < Array.length packets do
          let last = min (Array.length packets) (!i + batch) - 1 in
          Tracer.span Tracer.Peer_send (fun () ->
              for j = !i to last do
                let ib = packets.(j) in
                let neighbor_id = w.nbrs.(ib.Gen.i_nbr).id in
                if !Tracer.on then begin
                  Tracer.enter Tracer.Inbound;
                  R.inject_from_neighbor w.router ~neighbor_id ib.Gen.i_pkt;
                  Tracer.exit ()
                end
                else R.inject_from_neighbor w.router ~neighbor_id ib.Gen.i_pkt
              done);
          run_for w lan_settle;
          i := last + 1;
          let left = Array.length packets - !i in
          if (!i - !part_i0 >= part_items && left >= part_items / 2) || left = 0 then begin
            let now = Host.scaled_ns () in
            parts := (now -. !part_t0, !i - !part_i0) :: !parts;
            part_t0 := now;
            part_i0 := !i
          end
        done)
  in
  Array.iteri
    (fun e expect ->
      if w.cap.in_next.(e) <> Array.length expect then
        Check.flag "inbound: %d packets to experiment %d missing"
          (Array.length expect - w.cap.in_next.(e)) e)
    w.g.Gen.inbound_of;
  let failed = !Check.failures - before in
  measure ~items:(Array.length w.g.Gen.inbound) ~parts:(List.rev !parts) ~failed t
