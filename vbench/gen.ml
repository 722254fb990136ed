(* Seeded inputs. Everything a run sends the router is made here from the
   workload's shape and the command-line seed, before any clock starts:
   neighbor tables as pre-encoded UPDATEs, churn batches, steering scripts,
   flows and inbound packets. The same seed gives the same inputs.

   Steering tags and frame MACs name router-assigned identities (export ids,
   virtual MACs); they are kept here in neighbor-index space and bound to
   those identities once the router exists ([World.bind]). *)

open Netcore
open Bgp

type shape = {
  name : string;
  transits : int;  (** neighbors with large, overlapping tables *)
  transit_routes : int;  (** expected routes per transit *)
  peers : int;  (** neighbors with small tables *)
  peer_routes : int;
  universe : int;  (** distinct prefixes the tables draw from *)
  transit_paths : int;  (** distinct AS paths per transit *)
  peer_paths : int;
  listeners : int;  (** experiments connected during set-up *)
  churn_events : int;  (** route events per churn round *)
  churn_packed : bool;
      (** packed multi-NLRI UPDATEs sent in one engine tick, or one NLRI
          per UPDATE and one UPDATE per tick *)
  syncs : int;  (** full-table syncs per round *)
  steer_updates : int;  (** UPDATEs per experiment per steering round *)
  steer_tagged : bool;
  flows : int;
  flow_targets : int;
      (** the flows go to the first [flow_targets] neighbors (0: to all);
          each neighbor has its own flow cache *)
  frames_64 : int;  (** frames per forwarding round *)
  frames_1500 : int;
  fwd_batch : int;  (** frames per [Router.forward_frames] call *)
  fwd_updates_between : bool;
      (** a neighbor UPDATE lands in a forwarded-to table between batches *)
  inbound_packets : int;
}

(* The workloads. Each runs the same script of phases; the shapes put the
   work on different layers (see README.md). *)
let shapes =
  [
    {
      name = "fulltable";
      transits = 4;
      transit_routes = 110_000;
      peers = 96;
      peer_routes = 600;
      universe = 130_000;
      transit_paths = 2048;
      peer_paths = 16;
      listeners = 2;
      churn_events = 24_000;
      churn_packed = true;
      syncs = 1;
      steer_updates = 32;
      steer_tagged = false;
      flows = 256;
      flow_targets = 0;
      frames_64 = 400_000;
      frames_1500 = 200_000;
      fwd_batch = 1024;
      fwd_updates_between = false;
      inbound_packets = 100_000;
    };
    {
      name = "steer";
      transits = 0;
      transit_routes = 0;
      peers = 100;
      peer_routes = 200;
      universe = 40_000;
      transit_paths = 1;
      peer_paths = 16;
      listeners = 5;
      churn_events = 4_000;
      churn_packed = true;
      syncs = 4;
      steer_updates = 100;
      steer_tagged = true;
      flows = 512;
      flow_targets = 0;
      frames_64 = 400_000;
      frames_1500 = 300_000;
      fwd_batch = 1024;
      fwd_updates_between = false;
      inbound_packets = 100_000;
    };
    {
      name = "trickle";
      transits = 4;
      transit_routes = 20_000;
      peers = 36;
      peer_routes = 500;
      universe = 25_000;
      transit_paths = 1024;
      peer_paths = 16;
      listeners = 2;
      churn_events = 4_000;
      churn_packed = false;
      syncs = 1;
      steer_updates = 64;
      steer_tagged = true;
      flows = 12_288;
      flow_targets = 2;
      frames_64 = 150_000;
      frames_1500 = 100_000;
      fwd_batch = 1024;
      fwd_updates_between = true;
      inbound_packets = 100_000;
    };
  ]

let shape_of_name name = List.find_opt (fun s -> s.name = name) shapes
let neighbors s = s.transits + s.peers
let experiments s = s.listeners + 1

(* -- identities ------------------------------------------------------------- *)

let router_asn = 47065
let nbr_asn i = 1000 + i
let nbr_ip i = Ipv4.of_int32 (Int32.of_int (0x64400001 + i))
let exp_asn e = 61574 + e
let exp_name e = Printf.sprintf "exp%d" e
let exp_mac e = Mac.local ~pool:0xe0 (e + 1)

(* Each experiment owns a /18: 64 /24s, the first of which (its anchor)
   stays announced for inbound traffic. *)
let exp_slots = 64
let exp_alloc e = Prefix.make (Ipv4.of_octets 184 (164 + e) 0 0) 18
let exp_prefix e j = Prefix.make (Ipv4.of_octets 184 (164 + e) j 0) 24
let steer_width = 8
let variants = 4

(* Prefix and ADD-PATH route keys as plain ints (the peers' tables). *)
let prefix_key p =
  ((Int32.to_int (Ipv4.to_int32 (Prefix.network p)) land 0xffffffff) lsl 6)
  lor Prefix.length p

let route_key p path_id = (prefix_key p lsl 10) lor path_id
let ip_int a = Int32.to_int (Ipv4.to_int32 a) land 0xffffffff
let ip_of_int i = Ipv4.of_int32 (Int32.of_int i)

(* -- inputs ----------------------------------------------------------------- *)

type msg = { nbr : int; update : Msg.update; wire : string; nlri : int }

type steer_op =
  | Announce of {
      slots : int list;
      white : int list;  (** neighbor indexes *)
      black : int list;
      prepends : int;
      med : int;
    }
  | Withdraw of int list

type flow = {
  f_exp : int;
  f_nbr : int;
  pkt_64 : Ipv4_packet.t;
  wire_64 : string;
  pkt_1500 : Ipv4_packet.t;
  wire_1500 : string;
}

type inbound = { i_nbr : int; i_exp : int; i_pkt : Ipv4_packet.t; i_wire : string }

type t = {
  shape : shape;
  prefixes : Prefix.t array array;  (** per neighbor, its table *)
  half : int array array;
      (** per route: -1 stable, or the churn half (0/1) it belongs to *)
  transfer : msg array;  (** the initial table transfer, every neighbor *)
  churn : msg array array;  (** per variant; variant k withdraws half k mod 2 *)
  churn_events : int array;  (** route events per variant *)
  fwd_updates : msg array array;  (** per neighbor, two re-announcements *)
  steer : steer_op array array array;  (** variant -> experiment -> UPDATEs *)
  flows : flow array;
  inbound : inbound array;
  inbound_of : int array array;
      (** per listener: indexes into [inbound] of its packets, in send order *)
}

let params = Codec.default_params

let encode_all nbr u =
  List.map
    (fun (piece : Msg.update) ->
      {
        nbr;
        update = piece;
        wire = Codec.encode ~params (Msg.Update piece);
        nlri = List.length piece.Msg.announced + List.length piece.Msg.withdrawn;
      })
    (Codec.split_update ~params u)

let random_prefix rng =
  let len =
    match Random.State.int rng 100 with
    | x when x < 70 -> 24
    | x when x < 80 -> 23
    | x when x < 88 -> 22
    | x when x < 93 -> 21
    | x when x < 97 -> 20
    | _ -> 16
  in
  let rec first () =
    let o = 1 + Random.State.int rng 222 in
    if o = 10 || o = 100 || o = 127 || o = 184 then first () else o
  in
  let addr = (first () lsl 24) lor (Random.State.bits rng land 0xffffff) in
  let mask = (0xffffffff lsl (32 - len)) land 0xffffffff in
  Prefix.make (ip_of_int (addr land mask)) len

let random_host rng p =
  let size = 1 lsl (32 - Prefix.length p) in
  ip_of_int (ip_int (Prefix.network p) + 1 + Random.State.int rng (size - 2))

let distinct rng n bound =
  let seen = Hashtbl.create n in
  let rec pick acc k =
    if k = 0 then acc
    else
      let x = Random.State.int rng bound in
      if Hashtbl.mem seen x then pick acc k
      else begin
        Hashtbl.replace seen x ();
        pick (x :: acc) (k - 1)
      end
  in
  pick [] (min n bound)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let payload f size =
  String.init (size - Ipv4_packet.header_size) (fun j ->
      Char.chr (((f * 31) + (j * 7)) land 0xff))

let generate shape ~seed =
  let rng = Random.State.make [| seed; Hashtbl.hash shape.name |] in
  let n_nbrs = neighbors shape in
  (* The prefix universe; routes sharing an origin group of 8 consecutive
     prefixes share their AS path at a given neighbor. *)
  let universe =
    let seen = Hashtbl.create shape.universe in
    let out = ref [] and k = ref 0 in
    while !k < shape.universe do
      let p = random_prefix rng in
      let key = prefix_key p in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := p :: !out;
        incr k
      end
    done;
    Array.of_list (List.rev !out)
  in
  let n_paths n = if n < shape.transits then shape.transit_paths else shape.peer_paths in
  let pools =
    Array.init n_nbrs (fun n ->
        Array.init (n_paths n) (fun _ ->
            let middle =
              List.init (Random.State.int rng 4) (fun _ ->
                  Asn.of_int (2000 + Random.State.int rng 58000))
            in
            let origin = Asn.of_int (2000 + Random.State.int rng 58000) in
            Attr.origin_attrs
              ~as_path:(Aspath.of_asns ((Asn.of_int (nbr_asn n) :: middle) @ [ origin ]))
              ~next_hop:(nbr_ip n) ()))
  in
  let tables =
    Array.init n_nbrs (fun n ->
        let us =
          if n < shape.transits then begin
            let frac =
              float_of_int shape.transit_routes /. float_of_int shape.universe
            in
            let acc = ref [] in
            for u = shape.universe - 1 downto 0 do
              if Random.State.float rng 1.0 < frac then acc := u :: !acc
            done;
            Array.of_list !acc
          end
          else
            Array.of_list
              (List.sort compare (distinct rng shape.peer_routes shape.universe))
        in
        Array.map
          (fun u -> (universe.(u), Hashtbl.hash (n, u / 8) mod n_paths n))
          us)
  in
  let prefixes = Array.map (Array.map fst) tables in
  let path n i = snd tables.(n).(i) in
  (* Table transfer: per neighbor, one UPDATE per shared AS path, split at
     the classic 4096-byte message size. *)
  let grouped n members =
    let groups = Array.make (n_paths n) [] in
    List.iter
      (fun i -> groups.(path n i) <- Msg.nlri prefixes.(n).(i) :: groups.(path n i))
      (List.rev members);
    groups
  in
  let transfer =
    Array.to_list
      (Array.mapi
         (fun n tbl ->
           let groups = grouped n (List.init (Array.length tbl) Fun.id) in
           List.concat
             (Array.to_list
                (Array.mapi
                   (fun j nlris ->
                     if nlris = [] then []
                     else encode_all n (Msg.update ~attrs:pools.(n).(j) ~announced:nlris ()))
                   groups)))
         tables)
    |> List.concat |> Array.of_list
  in
  (* Churn halves: [churn_events] routes drawn from every table; each round
     withdraws one half and re-announces the other with new attributes. *)
  let half = Array.map (fun t -> Array.make (Array.length t) (-1)) tables in
  let all_routes =
    Array.concat (Array.to_list (Array.mapi (fun n t -> Array.init (Array.length t) (fun i -> (n, i))) tables))
  in
  let churn_n = min shape.churn_events (Array.length all_routes / 2) in
  List.iteri
    (fun k r ->
      let n, i = all_routes.(r) in
      half.(n).(i) <- k mod 2)
    (distinct rng churn_n (Array.length all_routes));
  let members h =
    Array.map
      (fun hs ->
        let acc = ref [] in
        Array.iteri (fun i x -> if x = h then acc := i :: !acc) hs;
        List.rev !acc)
      half
  in
  let members_of = [| members 0; members 1 |] in
  let churn =
    Array.init variants (fun k ->
        let out_half = k mod 2 in
        let in_half = 1 - out_half in
        let med = 100 + k in
        if shape.churn_packed then
          List.concat
            (List.init n_nbrs (fun n ->
                 let wd = members_of.(out_half).(n) and an = members_of.(in_half).(n) in
                 let withdraws =
                   if wd = [] then []
                   else
                     encode_all n
                       (Msg.update ~withdrawn:(List.map (fun i -> Msg.nlri prefixes.(n).(i)) wd) ())
                 in
                 let groups = grouped n an in
                 let announces =
                   List.concat
                     (Array.to_list
                        (Array.mapi
                           (fun j nlris ->
                             if nlris = [] then []
                             else
                               encode_all n
                                 (Msg.update
                                    ~attrs:(Attr.with_med med pools.(n).(j))
                                    ~announced:nlris ()))
                           groups))
                 in
                 withdraws @ announces))
          |> Array.of_list
        else begin
          let events =
            Array.of_list
              (List.concat
                 (List.init n_nbrs (fun n ->
                      List.map (fun i -> (n, i, false)) members_of.(out_half).(n)
                      @ List.map (fun i -> (n, i, true)) members_of.(in_half).(n))))
          in
          shuffle rng events;
          Array.map
            (fun (n, i, announce) ->
              let nl = [ Msg.nlri prefixes.(n).(i) ] in
              let u =
                if announce then
                  Msg.update ~attrs:(Attr.with_med med pools.(n).(path n i)) ~announced:nl ()
                else Msg.update ~withdrawn:nl ()
              in
              match encode_all n u with [ m ] -> m | _ -> assert false)
            events
        end)
  in
  let churn_events =
    Array.map (Array.fold_left (fun acc m -> acc + m.nlri) 0) churn
  in
  let stable n =
    let acc = ref [] in
    Array.iteri (fun i h -> if h < 0 then acc := i :: !acc) half.(n);
    Array.of_list !acc
  in
  let stables = Array.init n_nbrs stable in
  let fwd_updates =
    Array.init n_nbrs (fun n ->
        if (not shape.fwd_updates_between) || stables.(n) = [||] then [||]
        else
          let i = stables.(n).(0) in
          Array.init 2 (fun v ->
              match
                encode_all n
                  (Msg.update
                     ~attrs:(Attr.with_med (200 + v) pools.(n).(path n i))
                     ~announced:[ Msg.nlri prefixes.(n).(i) ]
                     ())
              with
              | [ m ] -> m
              | _ -> assert false))
  in
  let n_exps = experiments shape in
  let steer =
    Array.init variants (fun _ ->
        Array.init n_exps (fun _ ->
            Array.init shape.steer_updates (fun _ ->
                let slots =
                  List.map (fun x -> 1 + x) (distinct rng steer_width (exp_slots - 1))
                in
                if Random.State.int rng 100 < 65 then
                  let white, black =
                    if not shape.steer_tagged then ([], [])
                    else
                      match Random.State.int rng 100 with
                      | x when x < 50 -> (distinct rng 10 n_nbrs, [])
                      | x when x < 75 -> ([], distinct rng 5 n_nbrs)
                      | _ -> ([], [])
                  in
                  Announce
                    {
                      slots;
                      white;
                      black;
                      prepends = (if shape.steer_tagged then Random.State.int rng 4 else 0);
                      med = Random.State.int rng 1000;
                    }
                else Withdraw slots)))
  in
  let flows =
    let seen = Hashtbl.create shape.flows in
    Array.init shape.flows (fun f ->
        let rec pick () =
          let e = f mod shape.listeners in
          let n =
            Random.State.int rng (if shape.flow_targets > 0 then shape.flow_targets else n_nbrs)
          in
          if stables.(n) = [||] then pick ()
          else
            let p = prefixes.(n).(stables.(n).(Random.State.int rng (Array.length stables.(n)))) in
            let src = random_host rng (exp_prefix e 0) and dst = random_host rng p in
            let key = (e, ip_int src, ip_int dst) in
            if Hashtbl.mem seen key then pick ()
            else begin
              Hashtbl.replace seen key ();
              (e, n, src, dst)
            end
        in
        let e, n, src, dst = pick () in
        let mk size =
          Ipv4_packet.make ~ident:(f land 0xffff) ~src ~dst
            ~protocol:Ipv4_packet.Udp (payload f size)
        in
        let pkt_64 = mk 64 and pkt_1500 = mk 1500 in
        {
          f_exp = e;
          f_nbr = n;
          pkt_64;
          wire_64 = Ipv4_packet.encode pkt_64;
          pkt_1500;
          wire_1500 = Ipv4_packet.encode pkt_1500;
        })
  in
  let inbound =
    Array.init shape.inbound_packets (fun p ->
        let n = Random.State.int rng n_nbrs and e = Random.State.int rng shape.listeners in
        let src = random_host rng universe.(Random.State.int rng shape.universe) in
        let pkt =
          Ipv4_packet.make ~ttl:60 ~ident:(p land 0xffff) ~src
            ~dst:(random_host rng (exp_prefix e 0))
            ~protocol:Ipv4_packet.Udp (payload p 64)
        in
        { i_nbr = n; i_exp = e; i_pkt = pkt; i_wire = Ipv4_packet.encode pkt })
  in
  let inbound_of =
    Array.init shape.listeners (fun e ->
        Array.of_list
          (List.filter
             (fun i -> inbound.(i).i_exp = e)
             (List.init (Array.length inbound) Fun.id)))
  in
  {
    shape;
    prefixes;
    half;
    transfer;
    churn;
    churn_events;
    fwd_updates;
    steer;
    flows;
    inbound;
    inbound_of;
  }

let route_count t = Array.fold_left (fun acc p -> acc + Array.length p) 0 t.prefixes
