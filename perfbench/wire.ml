(* The system under test from the outside: spawning the shipped
   binaries as child processes, and one protocol client connection. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)
(* ------------------------------------------------------------------ *)

type proc = { pid : int; out : Unix.file_descr }

let live : proc list ref = ref []

(* Read one line from a child's stdout, giving up after [timeout_s]. *)
let read_line_timeout fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 80 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> None
        | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
        | _ ->
          Buffer.add_char buf (Bytes.get byte 0);
          go ())
  in
  go ()

(* Start [exe args] with stdout piped back (the listening banner is the
   readiness signal) and stderr appended to [log]; returns once the
   banner line has been read. *)
let spawn ~label ~log exe args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_w err in
  Unix.close out_w;
  Unix.close err;
  let p = { pid; out = out_r } in
  live := p :: !live;
  match read_line_timeout out_r ~timeout_s:30. with
  | Some banner -> p, banner
  | None -> failwith (Printf.sprintf "%s did not start (see %s)" label log)

let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 3. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] p.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ();
  (try Unix.close p.out with Unix.Unix_error _ -> ());
  live := List.filter (fun q -> q.pid <> p.pid) !live

let stop_all () = List.iter stop !live

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let vm_hwm_mb p =
  let path = Printf.sprintf "/proc/%d/status" p.pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"VmHWM:" l then
             Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                 float_of_int kb /. 1024.)
           else None)
    |> Option.value ~default:0.

(* The port of a "coral_server listening on HOST:PORT" banner. *)
let banner_port banner =
  match String.rindex_opt banner ':' with
  | Some i -> int_of_string (String.sub banner (i + 1) (String.length banner - i - 1))
  | None -> failwith ("unexpected banner: " ^ banner)

(* ------------------------------------------------------------------ *)
(* Protocol client                                                     *)
(* ------------------------------------------------------------------ *)

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

type addr = Tcp of int | Sock of string

let connect addr =
  let fd, sa =
    match addr with
    | Tcp port ->
      Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    | Sock path -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path
  in
  Unix.connect fd sa;
  (match addr with Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true | Sock _ -> ());
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type reply = { rows : string list; txt : string list; status : string }

let ok r = String.starts_with ~prefix:"ok" r.status

(* Send one request line and read the whole reply: [ans] rows (prefix
   stripped), [txt] lines, and the status line. *)
let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let rec go rows txt =
    match In_channel.input_line c.ic with
    | None -> { rows = List.rev rows; txt = List.rev txt; status = "err CLOSED" }
    | Some l when Coral_server.Protocol.is_status l ->
      { rows = List.rev rows; txt = List.rev txt; status = l }
    | Some l when String.starts_with ~prefix:"ans " l ->
      go (String.sub l 4 (String.length l - 4) :: rows) txt
    | Some l when String.starts_with ~prefix:"txt " l ->
      go rows (String.sub l 4 (String.length l - 4) :: txt)
    | Some _ -> go rows txt
  in
  go [] []

(* A "name=value" report line's value. *)
let stat r name =
  let prefix = name ^ "=" in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        float_of_string_opt (String.sub l (String.length prefix) (String.length l - String.length prefix))
      else None)
    r.txt
