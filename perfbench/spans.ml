(* The traced run's own spans: recorded around each call into a layer,
   kept in memory, written out as Chrome trace JSON at the end. *)

type span = {
  id : int;
  name : string;
  op : int;  (* the request (op) the span belongs to *)
  parent : int;  (* -1 for a root span *)
  start_ns : int;
  mutable end_ns : int;
}

type t = { mutable spans : span list; mutable next : int; mutable stack : int list }

let create () = { spans = []; next = 0; stack = [] }

let within t ~op name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s = { id = t.next; name; op; parent; start_ns = Wire.now_ns (); end_ns = 0 } in
  t.next <- t.next + 1;
  t.stack <- s.id :: t.stack;
  let finish () =
    s.end_ns <- Wire.now_ns ();
    t.stack <- List.tl t.stack;
    t.spans <- s :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let dur s = s.end_ns - s.start_ns

(* Self time: the span's duration minus the part its children cover
   (children run sequentially inside their parent, so their durations
   add up without overlap). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent (dur s + Option.value (Hashtbl.find_opt child s.parent) ~default:0))
    t.spans;
  List.map (fun s -> s, dur s - Option.value (Hashtbl.find_opt child s.id) ~default:0) t.spans

(* Only the spans of the first ops are written, which keeps a long
   run's file small; the metrics use every span. *)
let max_ops = 500

let write_chrome t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
             \"args\": {\"op\": %d, \"id\": %d, \"parent\": %d}}\n"
            (if i = 0 then "" else ",")
            s.name
            (float_of_int s.start_ns /. 1e3)
            (float_of_int (dur s) /. 1e3)
            s.op s.id s.parent)
        (List.rev (List.filter (fun s -> s.op < max_ops) t.spans));
      output_string oc "]}\n")
