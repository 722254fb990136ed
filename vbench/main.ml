(* The vBGP router benchmark. One run: generate the workload's inputs from
   the seed, set the router up several times (the last set-up is kept), then
   repeat whole rounds of the phase script until [--seconds] have passed:

     churn -> sync -> steer -> forward 64 B -> forward 1500 B -> inbound

   Each timed metric is the median over the parts of every round of its
   phase, on the clock [Host] scales by the host's contention. With
   [--trace 1] every other round (and the middle set-up) is traced, so the
   untraced phase times print beside the traced ones; the last line then
   carries the per-layer metrics instead of the end-to-end ones.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
          [--nproc N] [--spans FILE] *)

open Netcore
open Bgp
open Vbench
module R = Vbgp.Router

(* Set-ups per run: at least [min_setups], more while their total stays
   under [setup_budget_s], so that a short set-up still has a steady
   median. *)
let min_setups = 3
let max_setups = 11
let setup_budget_s = 2.0

(* The [q]-quantile of [l], interpolated between the nearest samples. *)
let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let x = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float x in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* The highest percentile of time with at least ten samples beyond it and
   its value (for a rate, the slow side), or "-" under 40 samples. *)
let tail ~per_s samples =
  let n = List.length samples in
  if n < 40 then "-"
  else
    let q = 10. /. float_of_int n in
    Printf.sprintf "p%.0f=%.4g" (100. *. (1. -. q)) (quantile (if per_s then q else 1. -. q) samples)

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* Mean ns per operation of [f] over [items], median of three passes. *)
let time_per_op items f =
  let n = Array.length items in
  if n = 0 then 0.
  else
    median
      (List.init 3 (fun _ ->
           let t0 = Tracer.now_ns () in
           Array.iter f items;
           fratio (Tracer.now_ns () - t0) n))

type phase = { name : string; unit_ : string; per_s : bool }

let phases =
  [|
    { name = "setup"; unit_ = "s"; per_s = false };
    { name = "churn"; unit_ = "updates/s"; per_s = true };
    { name = "sync"; unit_ = "routes/s"; per_s = true };
    { name = "steer"; unit_ = "updates/s"; per_s = true };
    { name = "fwd_64"; unit_ = "pps"; per_s = true };
    { name = "fwd_1500"; unit_ = "pps"; per_s = true };
    { name = "inbound"; unit_ = "pps"; per_s = true };
  |]

(* The heap is measured after set-up and this many rounds: a fixed amount
   of work, since the heap keeps growing from round to round. *)
let heap_rounds = 3

let heap_top_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* A round's value on the real clock, and on the scaled one. *)
let value p (m : World.measure) =
  let s = float_of_int m.World.wall_ns /. 1e9 in
  if p.per_s then ratio (float_of_int m.World.items) s else s

let scaled_value p (m : World.measure) =
  let s = m.World.scaled_ns /. 1e9 in
  if p.per_s then ratio (float_of_int m.World.items) s else s

(* The scaled rate of each separately timed part of these rounds. *)
let part_rates ms =
  List.concat_map
    (fun (m : World.measure) ->
      List.map (fun (ns, n) -> ratio (float_of_int n) (ns /. 1e9)) m.World.parts)
    ms

(* What a phase reports, on the scaled clock ([Host]): the median rate
   over the parts of every round, or for set-up the median time. *)
let reported p ms =
  if p.per_s then median (part_rates ms) else median (List.map (scaled_value p) ms)

let run (shape : Gen.shape) ~seed ~seconds ~trace ~nproc ~spans =
  let t_gen = Tracer.now_ns () in
  let g = Gen.generate shape ~seed in
  let gen_s = float_of_int (Tracer.now_ns () - t_gen) /. 1e9 in
  Printf.printf "# vbench workload=%s seed=%d seconds=%d trace=%b\n" shape.Gen.name seed seconds
    trace;
  Printf.printf "# machine: nproc=%s recommended_domain_count=%d ocaml=%s\n"
    (match nproc with Some n -> string_of_int n | None -> "unknown")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  Printf.printf
    "# inputs: %d neighbors, %d routes in %d transfer UPDATEs, %d experiments, %d flows, generated in %.2f s\n%!"
    (Gen.neighbors shape) (Gen.route_count g) (Array.length g.Gen.transfer)
    (Gen.experiments shape) shape.Gen.flows gen_s;
  (* results.(phase) : (traced, measure) in run order *)
  let results = Array.make (Array.length phases) [] in
  let add i traced m = results.(i) <- (traced, m) :: results.(i) in
  let arena0 = Bgp.Attr_arena.stats () in
  let world = ref None in
  let setup_ns = ref 0 and k = ref 0 in
  while
    !k < min_setups
    || (!k < max_setups && float_of_int !setup_ns /. 1e9 < setup_budget_s)
  do
    world := None;
    Gc.full_major ();
    Tracer.on := trace && !k = 1;
    let w, m = World.setup g ~traced:trace in
    add 0 !Tracer.on m;
    setup_ns := !setup_ns + m.World.wall_ns;
    world := Some w;
    incr k
  done;
  Tracer.on := false;
  let w = Option.get !world in
  let routes = R.route_count w.World.router in
  let bytes_per_route = fratio (R.control_plane_bytes w.World.router) routes in
  Printf.printf "# set-up: %d routes, heap top %.1f MB\n%!" routes (heap_top_mb ());
  let b = World.bind w in
  let st = Check.steering shape in
  World.announce_anchors w b;
  for e = 0 to shape.Gen.listeners - 1 do
    Check.announce_anchor st e
  done;
  let exp_bytes0 = World.exp_wire_bytes w and exp_ev0 = World.exp_route_events w in
  let nbr_bytes = ref 0 and nbr_events = ref 0 in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  (* traced-round bookkeeping for the per-layer metrics *)
  let flush_calls_churn = ref 0 and traced_churn = ref 0 in
  let engine_events = ref 0 and engine_items = ref 0 in
  let fwd_frames = [| 0; 0 |] in
  let absent = ref (-2) in
  let rounds = ref 0 and heap_peak_mb = ref 0. in
  let min_rounds = if trace then 4 else 3 in
  ignore (Host.take_mean_factor () : float);
  let t0 = Tracer.now_ns () in
  while !rounds < min_rounds || Tracer.now_ns () - t0 < seconds * 1_000_000_000 do
    let r = !rounds in
    let traced = trace && r mod 2 = 1 in
    Tracer.on := traced;
    let k = r mod Gen.variants in
    let engine_phase i f =
      let (calls0, _, _) = Tracer.stat Tracer.Flush and ev0 = !World.engine_events in
      let m = f () in
      add i traced m;
      if traced then begin
        engine_events := !engine_events + !World.engine_events - ev0;
        engine_items := !engine_items + m.World.items;
        if i = 1 then begin
          let (calls1, _, _) = Tracer.stat Tracer.Flush in
          flush_calls_churn := !flush_calls_churn + calls1 - calls0;
          incr traced_churn
        end
      end
    in
    engine_phase 1 (fun () -> World.churn w k);
    absent := k mod 2;
    for _ = 1 to shape.Gen.syncs do
      engine_phase 2 (fun () -> World.sync w ~absent:!absent)
    done;
    let nb0 = World.nbr_wire_bytes w and ne0 = World.nbr_route_events w in
    engine_phase 3 (fun () -> World.steer w b st k);
    nbr_bytes := !nbr_bytes + World.nbr_wire_bytes w - nb0;
    nbr_events := !nbr_events + World.nbr_route_events w - ne0;
    List.iteri
      (fun j size ->
        let m = World.forward w b size in
        add (4 + j) traced m;
        if traced then fwd_frames.(j) <- fwd_frames.(j) + m.World.items)
      [ 64; 1500 ];
    engine_phase 6 (fun () -> World.inbound w);
    incr rounds;
    if !rounds = heap_rounds then heap_peak_mb := heap_top_mb ()
  done;
  Tracer.on := false;
  let window_s = float_of_int (Tracer.now_ns () - t0) /. 1e9 in
  (* The experiments' whole tables, once, against the model (failures are
     flagged into [Check.failures]). *)
  ignore (World.check_exp_tables w ~absent:!absent : int);
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let exp_wire_bytes_per_route =
    fratio (World.exp_wire_bytes w - exp_bytes0) (World.exp_route_events w - exp_ev0)
  in
  let nbr_wire_bytes_per_route = fratio !nbr_bytes !nbr_events in
  (* -- report ---------------------------------------------------------------- *)
  let attempted = ref 0 in
  let probes = !Host.probes in
  let factor = Host.take_mean_factor () in
  Printf.printf
    "# measured %d rounds in %.2f s; host factor %.3f (mean of %d probes; passes %.0f-%.0f us)\n"
    !rounds window_s factor probes
    (float_of_int !Host.fastest /. 1e3)
    (float_of_int !Host.slowest /. 1e3);
  Printf.printf "%-9s %6s %6s %10s %7s %9s %9s %15s %15s %-10s %s\n" "phase" "rounds" "parts"
    "attempted" "failed" "wall_s" "cpu_s" "median" "reported" "unit" "tail";
  let medians =
    Array.mapi
      (fun i p ->
        let all = List.rev results.(i) in
        List.iter (fun (_, (m : World.measure)) -> attempted := !attempted + m.World.attempted) all;
        let pick traced = List.filter_map (fun (t, m) -> if t = traced then Some m else None) all in
        let line label ms =
          if ms <> [] then begin
            let sum f = List.fold_left (fun acc m -> acc + f m) 0 ms in
            let sumf f = List.fold_left (fun acc m -> acc +. f m) 0. ms in
            let parts = sum (fun m -> List.length m.World.parts) in
            Printf.printf "%-9s %6d %6d %10d %7d %9.3f %9.3f %15.4f %15.4f %-10s %s\n" label
              (List.length ms) parts
              (sum (fun m -> m.World.attempted))
              (sum (fun m -> m.World.failed))
              (float_of_int (sum (fun m -> m.World.wall_ns)) /. 1e9)
              (sumf (fun m -> m.World.cpu_s))
              (median (List.map (value p) ms))
              (reported p ms) p.unit_
              (if p.per_s then tail ~per_s:true (part_rates ms)
               else tail ~per_s:false (List.map (value p) ms))
          end
        in
        line p.name (pick false);
        if trace then line (p.name ^ "*") (pick true);
        let samples label f =
          Printf.printf "#   %s %s: %s\n" label p.name
            (String.concat " "
               (List.map (fun (t, m) -> Printf.sprintf "%.4g%s" (f p m) (if t then "*" else "")) all))
        in
        samples "samples" scaled_value;
        samples "raw" value;
        let untraced = reported p (pick false) in
        let traced = reported p (pick true) in
        let coverage =
          let ms = pick true in
          fratio
            (List.fold_left (fun acc m -> acc + m.World.covered_ns) 0 ms)
            (List.fold_left (fun acc m -> acc + m.World.wall_ns) 0 ms)
        in
        (untraced, traced, coverage))
      phases
  in
  if trace then begin
    Printf.printf "# rows marked * are traced rounds; tracing overhead (traced/untraced time):\n";
    Array.iteri
      (fun i p ->
        let u, t, c = medians.(i) in
        let overhead = if p.per_s then ratio u t else ratio t u in
        Printf.printf "#   %-9s x%.2f  coverage %.3f\n" p.name overhead c)
      phases
  end;
  let m i = let u, _, _ = medians.(i) in u in
  let end_to_end =
    [
      ("setup_s", "s", m 0);
      ("churn_updates_per_s", "updates/s", m 1);
      ("sync_routes_per_s", "routes/s", m 2);
      ("steer_updates_per_s", "updates/s", m 3);
      ("fwd_pps_64", "pps", m 4);
      ("fwd_pps_1500", "pps", m 5);
      ("inbound_pps", "pps", m 6);
      ("bytes_per_route", "B", bytes_per_route);
      ("heap_peak_mb", "MB", !heap_peak_mb);
      ("exp_wire_bytes_per_route", "B", exp_wire_bytes_per_route);
      ("nbr_wire_bytes_per_route", "B", nbr_wire_bytes_per_route);
    ]
  in
  let per_layer () =
    let router = w.World.router in
    let c = R.counters router in
    let ns layer =
      let (_, total, _) = Tracer.stat layer in
      float_of_int total
    in
    let calls layer =
      let (n, _, _) = Tracer.stat layer in
      n
    in
    let arena1 = Bgp.Attr_arena.stats () in
    let hits = arena1.Bgp.Attr_arena.hits - arena0.Bgp.Attr_arena.hits in
    let misses = arena1.Bgp.Attr_arena.misses - arena0.Bgp.Attr_arena.misses in
    let ex = R.export_stats router in
    (* Layers called inside the router, timed apart on the same inputs. *)
    let decode_ns =
      time_per_op (Array.append g.Gen.transfer g.Gen.churn.(0)) (fun (m : Gen.msg) ->
          ignore (Codec.decode ~params:Gen.params m.Gen.wire))
    in
    let enforcer = Vbgp.Control_enforcer.create ~platform_asns:[ Asn.of_int Gen.router_asn ] () in
    let steer_items =
      Array.concat
        (List.concat_map
           (fun per_exp ->
             Array.to_list
               (Array.mapi (fun e ups -> Array.map (fun (u, _) -> (e, u)) ups) per_exp))
           (Array.to_list b.World.steer))
    in
    let check_ns =
      time_per_op steer_items (fun (e, u) ->
          ignore
            (Vbgp.Control_enforcer.check enforcer ~now:0. ~pop:"vbench"
               w.World.exps.(e).World.grant u))
    in
    let frames n = Array.init n (fun j -> g.Gen.flows.(j mod Array.length g.Gen.flows)) in
    let sample = frames shape.Gen.frames_64 in
    let view_ns wire =
      time_per_op sample (fun f -> ignore (Ipv4_packet.View.of_string (wire f)))
    in
    let fibs = R.fib_set router in
    let lookups =
      Array.map
        (fun (f : Gen.flow) ->
          ( Rib.Fib.Set.table fibs w.World.nbrs.(f.Gen.f_nbr).World.id,
            f.Gen.pkt_64.Ipv4_packet.dst ))
        sample
    in
    let fib_ns = time_per_op lookups (fun (fib, dst) -> ignore (Rib.Fib.lookup fib dst)) in
    let data = Vbgp.Data_enforcer.create () in
    Vbgp.Data_enforcer.add_filter data
      (Vbgp.Data_enforcer.source_validation ~owner_of:(R.allocation_owner_of router) ());
    let data_ns =
      time_per_op sample (fun (f : Gen.flow) ->
          ignore
            (Vbgp.Data_enforcer.check data ~now:0.
               ~meta:{ Vbgp.Data_enforcer.ingress = Gen.exp_name f.Gen.f_exp }
               f.Gen.pkt_64))
    in
    let (ev_n, _, ev_self) = Tracer.stat Tracer.Engine in
    let coverage =
      Array.fold_left (fun acc (_, _, c) -> Float.min acc c) 1. medians
    in
    [
      ("codec.decode_ns_per_msg", "ns", decode_ns);
      ("session.receive_ns_per_msg", "ns", ratio (ns Tracer.Peer_receive) (float_of_int (calls Tracer.Peer_receive)));
      ("control_in.ingest_ns_per_nlri", "ns", ratio (ns Tracer.Control_in) (float_of_int !World.nlri_in));
      ("control_in.ingest_words_per_nlri", "words", ratio (Tracer.words Tracer.Control_in) (float_of_int !World.nlri_in));
      ("attr_arena.hit_ratio", "ratio", fratio hits (hits + misses));
      ("control_in.nlri_per_update_to_experiments", "ratio", fratio c.R.nlri_to_experiments c.R.updates_to_experiments);
      ("flush.ns_per_call", "ns", ratio (ns Tracer.Flush) (float_of_int (calls Tracer.Flush)));
      ("flush.ns_per_nlri_out", "ns", ratio (ns Tracer.Flush) (float_of_int !World.flush_nlri_out));
      ("flush.calls", "count", fratio !flush_calls_churn !traced_churn);
      ("flush.nlri_out_per_call", "count", fratio !World.flush_nlri_out (calls Tracer.Flush));
      ("control_out.process_ns_per_update", "ns", ratio (ns Tracer.Control_out) (float_of_int (calls Tracer.Control_out)));
      ("control_enforcer.check_ns_per_update", "ns", check_ns);
      ("control_out.reexport_computations_per_update", "count", fratio c.R.reexport_computations c.R.updates_from_experiments);
      ("control_out.nlri_per_update_to_neighbors", "ratio", fratio c.R.nlri_to_neighbors c.R.updates_to_neighbors);
      ("export_pool.wire_cache_hit_ratio", "ratio", fratio ex.R.wire_cache_hits (ex.R.wire_cache_hits + ex.R.wire_cache_misses));
      ("engine.events_per_item", "count", fratio !engine_events !engine_items);
      ("engine.self_ns_per_event", "ns", fratio ev_self ev_n);
      ("engine.pending_max", "count", float_of_int !World.pending_max);
      ("data_plane.forward_ns_per_frame_64", "ns", ratio (ns Tracer.Forward_64) (float_of_int fwd_frames.(0)));
      ("data_plane.forward_ns_per_frame_1500", "ns", ratio (ns Tracer.Forward_1500) (float_of_int fwd_frames.(1)));
      ("data_plane.forward_words_per_frame", "words",
        ratio (Tracer.words Tracer.Forward_64 +. Tracer.words Tracer.Forward_1500) (float_of_int (fwd_frames.(0) + fwd_frames.(1))));
      ("data_plane.flow_hit_ratio", "ratio", fratio c.R.flow_hits (c.R.flow_hits + c.R.flow_misses));
      ("ipv4_packet.view_ns_per_frame_64", "ns", view_ns (fun f -> f.Gen.wire_64));
      ("ipv4_packet.view_ns_per_frame_1500", "ns", view_ns (fun f -> f.Gen.wire_1500));
      ("fib.lookup_ns", "ns", fib_ns);
      ("fib.entries", "count", float_of_int (R.fib_entry_count router));
      ("data_enforcer.check_ns_per_packet", "ns", data_ns);
      ("data_plane.inbound_ns_per_packet", "ns", ratio (ns Tracer.Inbound) (float_of_int (calls Tracer.Inbound)));
      ("data_plane.inbound_words_per_packet", "words", ratio (Tracer.words Tracer.Inbound) (float_of_int (calls Tracer.Inbound)));
      ("gc.major_collections", "count", fratio major !rounds);
      ("trace.coverage", "ratio", coverage);
    ]
  in
  let metrics = if trace then per_layer () else end_to_end in
  List.iter (fun (name, unit_, v) -> Printf.printf "metric %-45s %18.4f %s\n" name v unit_) metrics;
  List.iter
    (fun (name, _, v) -> if not (Float.is_finite v) then Check.flag "metric %s is not finite" name)
    metrics;
  if trace then begin
    Printf.printf "# layer self time (traced phases and set-up):\n";
    Array.iter
      (fun l ->
        let n, total, self = Tracer.stat l in
        if n > 0 then
          Printf.printf "#   %-24s spans %9d  total %9.3f s  self %9.3f s  words %.3g\n"
            (Tracer.name l) n (float_of_int total /. 1e9) (float_of_int self /. 1e9)
            (Tracer.total_words.(Tracer.index l)))
      Tracer.layers;
    match spans with
    | Some path ->
        Tracer.write path;
        Printf.printf "# %d spans written to %s (%d beyond capacity not kept)\n" !Tracer.recorded
          path !Tracer.dropped
    | None -> ()
  end;
  let failed = !Check.failures in
  let correct = !Check.failures = 0 in
  List.iter (fun s -> Printf.printf "# FAILURE: %s\n" s) (List.rev !Check.log);
  let json_metrics =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
             (if Float.is_finite v then v else 0.)
             unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 !attempted) failed json_metrics;
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let nproc = ref None and spans = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME fulltable, steer or trickle");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--nproc", Arg.Int (fun n -> nproc := Some n), "N processors available, as reported");
      ("--spans", Arg.String (fun p -> spans := Some p), "FILE where a traced run writes its spans");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match Gen.shape_of_name !workload with
  | None ->
      prerr_endline ("unknown workload '" ^ !workload ^ "'");
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  | Some shape ->
      run shape ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1) ~nproc:!nproc ~spans:!spans
