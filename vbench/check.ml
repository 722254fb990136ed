(* Output checks, computed apart from the router from the generated inputs
   alone: a plain per-neighbor table model, the steering tags re-read with
   the export-control semantics, and the sent frames and packets. Every
   wrong output is one failure; the first few are kept for the report. *)

open Netcore

let failures = ref 0
let log = ref []

let flag fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      if List.length !log < 20 then log := s :: !log)
    fmt

(* Failures flagged while running [f]. *)
let counting f =
  let before = !failures in
  f ();
  !failures - before

(* -- experiments' ADD-PATH tables -------------------------------------------- *)

(* Routes present while churn half [absent] is withdrawn (-2: none is). *)
let present_count (g : Gen.t) ~absent =
  Array.fold_left
    (fun acc hs -> Array.fold_left (fun acc h -> if h = absent then acc else acc + 1) acc hs)
    0 g.Gen.half

(* Every experiment holds every present route of every neighbor, with path
   id = the neighbor's id and next hop = its virtual IP (§3.2.1), and
   nothing else. [nid] and [vip] are indexed by neighbor. *)
let exp_table (g : Gen.t) ~absent ~nid ~vip ~name (table : (int, int) Hashtbl.t) =
  counting (fun () ->
      let found = ref 0 in
      Array.iteri
        (fun n ps ->
          Array.iteri
            (fun i p ->
              if g.Gen.half.(n).(i) <> absent then
                match Hashtbl.find_opt table (Gen.route_key p nid.(n)) with
                | None ->
                    flag "%s: route %s from neighbor %d missing" name (Prefix.to_string p) n
                | Some nh ->
                    incr found;
                    if nh <> Gen.ip_int vip.(n) then
                      flag "%s: route %s from neighbor %d has next hop %s, expected %s" name
                        (Prefix.to_string p) n
                        (Ipv4.to_string (Gen.ip_of_int nh))
                        (Ipv4.to_string vip.(n)))
            ps)
        g.Gen.prefixes;
      let extra = Hashtbl.length table - !found in
      if extra > 0 then flag "%s: %d routes no neighbor announced" name extra)

(* -- neighbors' experiment routes -------------------------------------------- *)

(* Per experiment and slot of its allocation: announced with (whitelist,
   blacklist) neighbor indexes, or not announced. *)
type steering = (int list * int list) option array array

let steering (s : Gen.shape) : steering =
  Array.init (Gen.experiments s) (fun _ -> Array.make Gen.exp_slots None)

let announce_anchor (st : steering) e = st.(e).(0) <- Some ([], [])

let apply (st : steering) e ops =
  Array.iter
    (function
      | Gen.Announce { slots; white; black; _ } ->
          List.iter (fun j -> st.(e).(j) <- Some (white, black)) slots
      | Gen.Withdraw slots -> List.iter (fun j -> st.(e).(j) <- None) slots)
    ops

(* Export control (§3.2.1), re-derived: no tags announce everywhere, a
   whitelist restricts to its members, a blacklist always excludes. *)
let allows ~export_id ~white ~black =
  (not (List.mem export_id black)) && (white = [] || List.mem export_id white)

(* Each neighbor holds exactly the experiment routes the tags select, each
   originated by its experiment's ASN. [export_ids] is indexed by neighbor. *)
let neighbor_routes (st : steering) ~export_ids (heard : (int, int) Hashtbl.t array) =
  counting (fun () ->
      Array.iteri
        (fun n h ->
          let expected = ref 0 in
          Array.iteri
            (fun e slots ->
              Array.iteri
                (fun j state ->
                  match state with
                  | Some (white, black)
                    when allows ~export_id:export_ids.(n)
                           ~white:(List.map (fun i -> export_ids.(i)) white)
                           ~black:(List.map (fun i -> export_ids.(i)) black) -> (
                      incr expected;
                      let p = Gen.exp_prefix e j in
                      match Hashtbl.find_opt h (Gen.prefix_key p) with
                      | None -> flag "neighbor %d: experiment route %s missing" n (Prefix.to_string p)
                      | Some origin when origin <> Gen.exp_asn e ->
                          flag "neighbor %d: %s originated by AS%d" n (Prefix.to_string p) origin
                      | Some _ -> ())
                  | _ -> ())
                slots)
            st;
          if Hashtbl.length h > !expected then
            flag "neighbor %d: %d experiment routes the tags exclude" n
              (Hashtbl.length h - !expected))
        heard)

(* -- data plane ---------------------------------------------------------------- *)

(* One forwarded packet, as neighbor [nbr] received it: the frame must
   have reached the neighbor whose MAC it named (every flow's destination
   is covered by that neighbor's table), as the packet sent with its TTL
   decremented. [None] when right. *)
let forward_problem (g : Gen.t) ~size ~flow ~nbr (p : Ipv4_packet.t) =
  let f = g.Gen.flows.(flow) in
  let sent = if size = 64 then f.Gen.pkt_64 else f.Gen.pkt_1500 in
  if nbr <> f.Gen.f_nbr then
    Some
      (Printf.sprintf "forward %dB: frame for neighbor %d delivered to neighbor %d" size
         f.Gen.f_nbr nbr)
  else if p.Ipv4_packet.ttl <> sent.Ipv4_packet.ttl - 1 then
    Some
      (Printf.sprintf "forward %dB: TTL %d, expected %d" size p.Ipv4_packet.ttl
         (sent.Ipv4_packet.ttl - 1))
  else if
    not
      (Ipv4.equal p.Ipv4_packet.src sent.Ipv4_packet.src
      && Ipv4.equal p.Ipv4_packet.dst sent.Ipv4_packet.dst
      && p.Ipv4_packet.protocol = sent.Ipv4_packet.protocol
      && p.Ipv4_packet.ident = sent.Ipv4_packet.ident
      && String.equal p.Ipv4_packet.payload sent.Ipv4_packet.payload)
  then Some (Printf.sprintf "forward %dB: packet altered" size)
  else None

(* One inbound frame at its experiment's LAN station: from the delivering
   neighbor's virtual MAC [vmac], to the experiment, carrying the sent
   packet's wire bytes unchanged (so its header checksum is the valid one
   [Ipv4_packet.encode] wrote). [None] when right. *)
let inbound_problem ~vmac (ib : Gen.inbound) (frame : Eth.t) =
  if not (Mac.equal frame.Eth.src vmac) then
    Some
      (Printf.sprintf "inbound: source MAC %s, expected neighbor %d's %s"
         (Mac.to_string frame.Eth.src) ib.Gen.i_nbr (Mac.to_string vmac))
  else if not (Mac.equal frame.Eth.dst (Gen.exp_mac ib.Gen.i_exp)) then
    Some
      (Printf.sprintf "inbound: frame for experiment %d sent to %s" ib.Gen.i_exp
         (Mac.to_string frame.Eth.dst))
  else if not (String.equal frame.Eth.payload ib.Gen.i_wire) then
    Some (Printf.sprintf "inbound: packet to experiment %d altered" ib.Gen.i_exp)
  else None
