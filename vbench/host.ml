(* The host's share of the benchmark's core, measured by a probe, and a
   clock scaled by it.

   The benchmark runs on a VM whose vCPUs share physical cores with other
   tenants. While a core's other hardware thread is busy, the router runs
   1.5-1.8x slower, for stretches of a few seconds to minutes, and every
   phase moves together. A pointer chase or a dependent multiply chain
   barely moves, and a loop of independent integer chains moves more than
   the router. So the probe does what the router does per packet: hash
   table lookups and 64-byte copies. It allocates nothing, so the
   collector's settings do not reach it.

   Every [interval_ns] of benchmark time, between engine events or frame
   batches, the probe runs two passes, and the faster one sets [factor] =
   [reference_ns] / its time. Phases are timed on two clocks that leave
   the probes out: [real_ns], and [scaled_ns], which advances by real time
   times the last factor. A phase timed on the scaled clock takes about
   the time it would take on an uncontended core of the reference machine
   (README.md, "Run-to-run spread"). *)

(* Hash-table lookups and 64-byte copies, as a router does per packet. *)
let keys = Array.init 8192 (fun i -> i * 2654435761 land 0xffffff)
let hashed = Hashtbl.create 8192
let () = Array.iteri (fun i k -> Hashtbl.replace hashed k i) keys
let src = Bytes.make 1500 'x'
let dst = Bytes.create 64

let lookups n =
  let acc = ref 0 and j = ref 7 in
  for _ = 1 to n do
    j := ((!j * 1103515245) + 12345) land 8191;
    acc := !acc + Hashtbl.find hashed keys.(!j);
    Bytes.blit src (!acc land 1023) dst 0 64
  done;
  !acc

let pass_lookups = 6_400

(* A pass's ns on an uncontended core of the reference machine (2-vCPU
   Intel Xeon VM, 2.0 GHz nominal). *)
let reference_ns = 250_000.
let interval_ns = 40_000_000

let factor = ref 1.
let mark = ref (Tracer.now_ns ())

(* Scaled ns up to [mark]. *)
let scaled = ref 0.

(* Real ns spent in probes. *)
let probe_ns = ref 0

let probes = ref 0
let factor_sum = ref 0.

let pass () =
  let t = Tracer.now_ns () in
  ignore (Sys.opaque_identity (lookups pass_lookups));
  Tracer.now_ns () - t

(* The fastest and slowest pass of the run, in ns. *)
let fastest = ref max_int
let slowest = ref 0

let probe () =
  let t0 = Tracer.now_ns () in
  scaled := !scaled +. (float_of_int (t0 - !mark) *. !factor);
  let best = min (pass ()) (pass ()) in
  let t1 = Tracer.now_ns () in
  probe_ns := !probe_ns + (t1 - t0);
  fastest := min !fastest best;
  slowest := max !slowest best;
  factor := reference_ns /. float_of_int (max 1 best);
  incr probes;
  factor_sum := !factor_sum +. !factor;
  mark := t1

(* Probe if [interval_ns] have passed since the last probe. Not inside a
   span, so that no layer's time includes a probe. *)
let tick () = if !Tracer.depth = 0 && Tracer.now_ns () - !mark >= interval_ns then probe ()

let real_ns () = Tracer.now_ns () - !probe_ns
let scaled_ns () = !scaled +. (float_of_int (Tracer.now_ns () - !mark) *. !factor)

(* The mean factor over the probes since the last call. *)
let take_mean_factor () =
  let m = if !probes = 0 then !factor else !factor_sum /. float_of_int !probes in
  probes := 0;
  factor_sum := 0.;
  m
