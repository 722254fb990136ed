(* Self-test of the benchmark's output checks: a tiny world runs one round
   of the phase script with no failure, then a dropped route and a wrong
   next hop are written into an experiment's table and a wrong source MAC
   into the frames an experiment receives, and each must be caught. Exits
   non-zero otherwise.

   Run with [dune exec vbench/selftest.exe] (it is also a dune test). *)

open Netcore
open Vbench

let shape =
  {
    (Option.get (Gen.shape_of_name "steer")) with
    Gen.name = "selftest";
    transits = 1;
    transit_routes = 200;
    peers = 3;
    peer_routes = 20;
    universe = 300;
    transit_paths = 8;
    peer_paths = 2;
    listeners = 2;
    churn_events = 40;
    syncs = 1;
    steer_updates = 4;
    flows = 16;
    flow_targets = 0;
    frames_64 = 32;
    frames_1500 = 16;
    fwd_batch = 16;
    inbound_packets = 40;
  }

let ok = ref true

let expect what cond =
  Printf.printf "%-58s %s\n" what (if cond then "ok" else "FAILED");
  if not cond then ok := false

let () =
  let g = Gen.generate shape ~seed:7 in
  let w, _ = World.setup g ~traced:false in
  let b = World.bind w in
  let st = Check.steering shape in
  World.announce_anchors w b;
  for e = 0 to shape.Gen.listeners - 1 do
    Check.announce_anchor st e
  done;
  (* In script order (list elements would be evaluated right to left). *)
  let churn = World.churn w 0 in
  let sync = World.sync w ~absent:0 in
  let steer = World.steer w b st 0 in
  let fwd_64 = World.forward w b 64 in
  let fwd_1500 = World.forward w b 1500 in
  let inbound = World.inbound w in
  let phases = [ churn; sync; steer; fwd_64; fwd_1500; inbound ] in
  expect "clean round: no failed operation"
    (List.for_all (fun (m : World.measure) -> m.World.failed = 0) phases && !Check.failures = 0);
  List.iter print_endline !Check.log;
  let table_check () = World.check_exp_tables w ~absent:0 in
  expect "clean round: experiment tables match the model" (table_check () = 0);
  let table = w.World.exps.(0).World.table in
  let key, nh = Hashtbl.fold (fun k v _ -> (k, v)) table (0, 0) in
  Hashtbl.remove table key;
  expect "dropped route is caught" (table_check () > 0);
  Hashtbl.replace table key (nh + 1);
  expect "wrong next hop is caught" (table_check () > 0);
  Hashtbl.replace table key nh;
  expect "restored table passes again" (table_check () = 0);
  (* The first listener's LAN station now sees every frame with a foreign
     source MAC. *)
  Sim.Lan.attach
    (Vbgp.Router.experiment_lan w.World.router)
    (Gen.exp_mac 0)
    (fun frame -> World.record_frame w 0 { frame with Eth.src = Mac.local ~pool:0x11 1 });
  expect "wrong source MAC is caught" ((World.inbound w).World.failed > 0);
  if not !ok then exit 1
