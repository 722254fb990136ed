(* Spans recorded from the benchmark's own code around its calls into the
   router's layers. Each span has a layer, a start, an end and the span
   that was open when it started (its parent); a layer's self time is its
   span time minus the time its child spans cover. Time is the monotonic
   clock in ns; allocation is the [Gc.minor_words] a span covers.

   Aggregates are kept for every span. The spans themselves are kept in
   memory up to [capacity] and written out when the run ends. *)

type layer =
  | Engine  (** one [Sim.Engine.step] *)
  | Peer_receive  (** a peer's link receive callback (neighbor or experiment side) *)
  | Router_receive  (** the router's link receive callback on a neighbor link *)
  | Control_in  (** [Router.process_neighbor_update] *)
  | Control_out  (** the router's receive of one experiment UPDATE *)
  | Flush  (** [Router.flush_reexports] *)
  | Forward_64  (** [Router.forward_frames], 64-byte packets *)
  | Forward_1500  (** [Router.forward_frames], 1500-byte packets *)
  | Inbound  (** [Router.inject_from_neighbor] *)
  | Peer_send  (** the peers' sends at the start of a phase *)
  | Lan_receive  (** an experiment's LAN station receiving a frame *)
  | Wiring  (** [Router.create], [add_neighbor], [connect_experiment] *)

let layers =
  [| Engine; Peer_receive; Router_receive; Control_in; Control_out; Flush;
     Forward_64; Forward_1500; Inbound; Peer_send; Lan_receive; Wiring |]

let index = function
  | Engine -> 0
  | Peer_receive -> 1
  | Router_receive -> 2
  | Control_in -> 3
  | Control_out -> 4
  | Flush -> 5
  | Forward_64 -> 6
  | Forward_1500 -> 7
  | Inbound -> 8
  | Peer_send -> 9
  | Lan_receive -> 10
  | Wiring -> 11

let name = function
  | Engine -> "engine"
  | Peer_receive -> "session.receive"
  | Router_receive -> "session.router_receive"
  | Control_in -> "control_in"
  | Control_out -> "control_out"
  | Flush -> "flush"
  | Forward_64 -> "data_plane.forward_64"
  | Forward_1500 -> "data_plane.forward_1500"
  | Inbound -> "data_plane.inbound"
  | Peer_send -> "peer.send"
  | Lan_receive -> "lan.receive"
  | Wiring -> "wiring"

let n_layers = Array.length layers

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Whether spans are being taken right now: the traced run toggles it per
   phase, so that it can report untraced phase times beside the traced
   ones. *)
let on = ref false

let count = Array.make n_layers 0
let total_ns = Array.make n_layers 0
let self_ns = Array.make n_layers 0
let total_words = Array.make n_layers 0.

(* Time covered by top-level spans since the last [take_covered]. *)
let covered = ref 0

let capacity = 200_000
let rec_layer = Array.make capacity 0
let rec_start = Array.make capacity 0
let rec_end = Array.make capacity 0
let rec_parent = Array.make capacity (-1)
let recorded = ref 0
let dropped = ref 0

let max_depth = 64
let st_layer = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_words = Array.make max_depth 0.
let st_rec = Array.make max_depth (-1)
let depth = ref 0

let enter layer =
  let d = !depth in
  if d >= max_depth then failwith "Tracer.enter: spans nested too deep";
  let i = index layer in
  st_layer.(d) <- i;
  st_child.(d) <- 0;
  (if !recorded < capacity then begin
     let r = !recorded in
     rec_layer.(r) <- i;
     rec_parent.(r) <- (if d > 0 then st_rec.(d - 1) else -1);
     st_rec.(d) <- r;
     incr recorded
   end
   else begin
     st_rec.(d) <- -1;
     incr dropped
   end);
  depth := d + 1;
  (* Clocks last, so the span's own bookkeeping stays outside it. *)
  st_words.(d) <- Gc.minor_words ();
  let t = now_ns () in
  st_start.(d) <- t;
  if st_rec.(d) >= 0 then rec_start.(st_rec.(d)) <- t

let exit () =
  let t = now_ns () in
  let w = Gc.minor_words () in
  let d = !depth - 1 in
  if d < 0 then failwith "Tracer.exit: no open span";
  depth := d;
  let i = st_layer.(d) in
  let dur = t - st_start.(d) in
  let words = w -. st_words.(d) in
  count.(i) <- count.(i) + 1;
  total_ns.(i) <- total_ns.(i) + dur;
  self_ns.(i) <- self_ns.(i) + dur - st_child.(d);
  total_words.(i) <- total_words.(i) +. words;
  if st_rec.(d) >= 0 then rec_end.(st_rec.(d)) <- t;
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur
  else covered := !covered + dur

(* [span layer f] when tracing, plain [f ()] otherwise. *)
let span layer f =
  if !on then begin
    enter layer;
    let v = f () in
    exit ();
    v
  end
  else f ()

let take_covered () =
  let c = !covered in
  covered := 0;
  c

let stat layer = (count.(index layer), total_ns.(index layer), self_ns.(index layer))
let words layer = total_words.(index layer)

(* One line per span: id, layer, start and end (ns, relative to the first
   span), parent id (-1 at top level). *)
let write path =
  let oc = open_out path in
  let base = if !recorded > 0 then rec_start.(0) else 0 in
  output_string oc "id\tlayer\tstart_ns\tend_ns\tparent\n";
  for r = 0 to !recorded - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" r
      (name layers.(rec_layer.(r)))
      (rec_start.(r) - base) (rec_end.(r) - base) rec_parent.(r)
  done;
  close_out oc
