(* Snapshot codec robustness: the decoder is total.  Truncated files,
   torn headers, flipped bytes, wrong versions and random garbage must
   all come back as structured errors — never an exception, never a
   segfault — and the header codec round-trips exactly. *)

module Snap = Vc_snap.Snap
module Store = Vc_snap.Store
module Iarr = Vc_graph.Iarr
module Registry = Vc_check.Registry

let tmp_path suffix = Filename.temp_file "vc-snap-test" suffix

let with_tmp suffix f =
  let path = tmp_path suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let segments =
  [
    ("alpha", Iarr.of_array [| 1; 2; 3; 4; 5 |]);
    ("beta", Iarr.of_array [| -7; max_int; min_int; 0 |]);
    ("empty", Iarr.of_array [||]);
  ]

let write_sample path =
  match
    Snap.write ~path ~builder_version:"test-v1" ~problem:"UnitTest" ~size:5 ~seed:99L ~n:5
      ~segments
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write_sample: %s" (Snap.error_to_string e)

let err_str = function
  | Ok _ -> "ok"
  | Error e -> Snap.error_to_string e

(* --- round trip --------------------------------------------------------------- *)

let test_roundtrip () =
  with_tmp ".snap" @@ fun path ->
  write_sample path;
  match Snap.load ~path with
  | Error e -> Alcotest.failf "load: %s" (Snap.error_to_string e)
  | Ok l ->
      Alcotest.(check string) "problem" "UnitTest" l.Snap.hdr.Snap.problem;
      Alcotest.(check int) "size" 5 l.Snap.hdr.Snap.size;
      Alcotest.(check int64) "seed" 99L l.Snap.hdr.Snap.seed;
      Alcotest.(check int) "n" 5 l.Snap.hdr.Snap.n;
      Alcotest.(check int) "segments" 3 (List.length l.Snap.hdr.Snap.segments);
      List.iter
        (fun (name, expect) ->
          match Snap.seg_find l name with
          | None -> Alcotest.failf "segment %s missing" name
          | Some a ->
              Alcotest.(check (array int))
                (Printf.sprintf "segment %s contents" name)
                (Iarr.to_array expect) (Iarr.to_array a))
        segments;
      Alcotest.(check bool) "absent segment" true (Snap.seg_find l "nope" = None);
      (match Snap.verify ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "verify intact: %s" (Snap.error_to_string e))

(* --- structured failures ------------------------------------------------------- *)

(* every strict prefix of a valid snapshot must load as a structured
   error, never raise: this sweeps through mid-preamble, mid-header and
   mid-payload cuts (segment-bounds checks catch payload truncation) *)
let test_truncations () =
  with_tmp ".snap" @@ fun path ->
  write_sample path;
  let whole = read_file path in
  with_tmp ".cut" @@ fun cut_path ->
  for cut = 0 to String.length whole - 1 do
    write_file cut_path (String.sub whole 0 cut);
    match Snap.load ~path:cut_path with
    | Ok _ -> Alcotest.failf "prefix of %d bytes loaded" cut
    | Error (Snap.Truncated _ | Snap.Bad_header _ | Snap.Bad_checksum _) -> ()
    | Error e -> Alcotest.failf "prefix of %d bytes: unexpected %s" cut (Snap.error_to_string e)
  done

let patch s off bytes =
  let b = Bytes.of_string s in
  String.iteri (fun i c -> Bytes.set b (off + i) c) bytes;
  Bytes.to_string b

(* xor-flip one byte: guaranteed to change it, whatever it was *)
let flip s off =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  Bytes.to_string b

let le64 x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 x;
  Bytes.to_string b

let expect_error what expected result =
  if err_str result <> err_str (Error expected) then
    Alcotest.failf "%s: expected %s, got %s" what
      (Snap.error_to_string expected)
      (err_str result)

let test_corruptions () =
  with_tmp ".snap" @@ fun path ->
  write_sample path;
  let whole = read_file path in
  with_tmp ".bad" @@ fun bad ->
  (* bad magic *)
  write_file bad (patch whole 0 "X");
  expect_error "magic" Snap.Bad_magic (Snap.load ~path:bad);
  (* wrong version *)
  write_file bad (patch whole 8 (le64 2L));
  expect_error "version" (Snap.Bad_version 2) (Snap.load ~path:bad);
  (* foreign byte order *)
  write_file bad (patch whole 16 "\xff\xff\xff\xff\xff\xff\xff\xff");
  expect_error "byte order" Snap.Bad_byte_order (Snap.load ~path:bad);
  (* unreasonable header length *)
  write_file bad (patch whole 24 (le64 (Int64.of_int ((1 lsl 20) + 1))));
  expect_error "header length" (Snap.Bad_header "header length") (Snap.load ~path:bad);
  (* torn header: flip one blob byte — the header checksum catches it *)
  write_file bad (flip whole 48);
  expect_error "torn header" (Snap.Bad_checksum "header") (Snap.load ~path:bad);
  (* torn payload: flip a byte in the last segment.  load is page-lazy
     (accepts), but verify recomputes segment sums and must refuse *)
  write_file bad (flip whole (String.length whole - 1));
  (match Snap.load ~path:bad with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "payload flip rejected by load: %s" (Snap.error_to_string e));
  (match Snap.verify ~path:bad with
  | Error (Snap.Bad_checksum _) -> ()
  | r -> Alcotest.failf "payload flip: verify said %s" (err_str r));
  (* a segment pointing past the end of the file *)
  write_file bad (String.sub whole 0 (String.length whole - 8));
  (match Snap.load ~path:bad with
  | Error (Snap.Truncated _) -> ()
  | r -> Alcotest.failf "short payload: load said %s" (err_str r))

let test_missing_file () =
  match Snap.load ~path:"/nonexistent/volcomp.snap" with
  | Error (Snap.Io _) -> ()
  | r -> Alcotest.failf "missing file: %s" (err_str r)

(* --- store semantics ----------------------------------------------------------- *)

let with_store ~builder_version f =
  let dir = Filename.temp_file "vc-snap-store" "" in
  Sys.remove dir;
  let store = Store.create ~dir ~builder_version in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (Store.files store);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f store)

let test_store_roundtrip () =
  with_store ~builder_version:"test-v1" @@ fun store ->
  let key = ("UnitTest", 5, 99L) in
  let load (problem, size, seed) = Store.load store ~problem ~size ~seed in
  Alcotest.(check bool) "cold miss" true (load key = None);
  let problem, size, seed = key in
  Alcotest.(check bool)
    "publish" true
    (Store.publish store ~problem ~size ~seed ~n:5 ~segments);
  (match load key with
  | None -> Alcotest.fail "published key misses"
  | Some l -> Alcotest.(check string) "hit problem" "UnitTest" l.Snap.hdr.Snap.problem);
  Alcotest.(check bool) "other size misses" true (load ("UnitTest", 6, 99L) = None);
  Alcotest.(check bool) "other seed misses" true (load ("UnitTest", 5, 98L) = None);
  (* a corrupt store file is a miss, not a crash *)
  (match Store.files store with
  | [ p ] -> write_file p "garbage"
  | fs -> Alcotest.failf "expected 1 store file, found %d" (List.length fs));
  Alcotest.(check bool) "corrupt file misses" true (load key = None)

(* A stale builder version must never serve: even if the file is placed
   at the exact path the new store would look at, the header re-check
   rejects it. *)
let test_store_stale_builder () =
  with_store ~builder_version:"old" @@ fun old_store ->
  with_store ~builder_version:"new" @@ fun new_store ->
  let problem = "UnitTest" and size = 5 and seed = 99L in
  Alcotest.(check bool)
    "publish old" true
    (Store.publish old_store ~problem ~size ~seed ~n:5 ~segments);
  (match Store.files old_store with
  | [ p ] ->
      let target = Store.path new_store ~problem ~size ~seed in
      write_file target (read_file p)
  | fs -> Alcotest.failf "expected 1 old-store file, found %d" (List.length fs));
  Alcotest.(check bool)
    "stale builder version misses" true
    (Store.load new_store ~problem ~size ~seed = None)

(* The registry bump (registry-v1 → registry-v2, when the graph-family
   builders landed) must invalidate every pre-bump store: a registry-v1
   snapshot placed at the exact path the current store reads is a miss,
   never a stale hit. *)
let test_store_registry_v1_stale () =
  Alcotest.(check string) "current registry version" "registry-v2" Registry.builder_version;
  with_store ~builder_version:"registry-v1" @@ fun v1_store ->
  with_store ~builder_version:Registry.builder_version @@ fun store ->
  let problem = "DegreeParity" and size = 16 and seed = 42L in
  Alcotest.(check bool)
    "publish registry-v1" true
    (Store.publish v1_store ~problem ~size ~seed ~n:16 ~segments);
  (match Store.files v1_store with
  | [ p ] ->
      let target = Store.path store ~problem ~size ~seed in
      write_file target (read_file p)
  | fs -> Alcotest.failf "expected 1 v1-store file, found %d" (List.length fs));
  Alcotest.(check bool)
    "registry-v1 snapshot misses under registry-v2" true
    (Store.load store ~problem ~size ~seed = None)

(* Registry integration: acquiring through a store is a publish-on-miss
   then a hit, and the hit is marked [`Snapshot]. *)
let test_registry_acquire () =
  with_store ~builder_version:Registry.builder_version @@ fun store ->
  let e =
    List.find
      (fun (e : Registry.entry) -> e.Registry.name = "LeafColoring")
      (Registry.all ())
  in
  let size = List.hd e.Registry.quick_sizes in
  let n_cold = e.Registry.acquire ~store ~size ~seed:7L () in
  Alcotest.(check bool) "store populated" true (Store.files store <> []);
  let trial = e.Registry.make ~store ~size ~seed:7L () in
  Alcotest.(check bool) "hit is `Snapshot" true (trial.Registry.t_source = `Snapshot);
  Alcotest.(check int) "node counts agree" n_cold trial.Registry.t_n

(* Golden snapshot bytes: every registry entry published at its first
   quick size, seed 42, must write exactly these files, so a codec
   rewrite that renames, reorders or re-encodes a segment shows here
   before it strands an existing store.  The payload is raw host words
   (see [Snap]), so these digests assume a 64-bit little-endian host. *)
let golden_md5 =
  [
    ("DegreeParity", "c5f130d5d15ee862b80d0e02ea6a38b5");
    ("CycleColoring3", "b0223b7fed20fc0bda78ce74555a32a6");
    ("SinklessOrientation", "bccff66a62c11ebf45875fa546582cdf");
    ("LeafColoring", "06002c8f7ac88404a9f0e30af56df805");
    ("PromiseLeafColoring (secret)", "77a98b57334f0073fd70cbc29b44eb96");
    ("BalancedTree", "5d4213ae2b047390ca2e12736db33dde");
    ("Hierarchical-THC(2)", "0490b2e32cab80057c5ca7f5706b98bd");
    ("Hybrid-THC(2)", "8a6ac9d165a81394d0628ddc8f4ba466");
    ("HH-THC(2,3)", "463bc607ed66b28bb393a6fc0c45d78d");
    ("LeafBitCopy (Ex 7.6)", "73bd94ff06a5666160399394ad805278");
    ("TorusColoring4", "64f14435f2ff050a82cab77766b22046");
    ("RegularColoring4", "2c110c05cdba81aa97eaf79451efd7b2");
    ("TorusMatching", "84466313d4b3aa0583ec174d4ff1508e");
    ("RegularMatching", "c59d927ea811d7ce0329448ce262c8d2");
    ("RegularMIS", "21f447095e543474d6f67853985c13a6");
    ("ExpanderMIS", "de3d6bfd609a9ad0f5a44ac611bc55a7");
    ("RegularSinkless", "843449a00748ff2aa3d7fe9129a9d4c8");
  ]

let test_registry_golden_bytes () =
  with_store ~builder_version:Registry.builder_version @@ fun store ->
  let got =
    List.map
      (fun (e : Registry.entry) ->
        let size = List.hd e.Registry.quick_sizes and seed = 42L in
        ignore (e.Registry.acquire ~store ~size ~seed () : int);
        let path = Store.path store ~problem:e.Registry.name ~size ~seed in
        (e.Registry.name, Digest.to_hex (Digest.file path)))
      (Registry.all ())
  in
  Alcotest.(check (list (pair string string))) "snapshot MD5 per entry" golden_md5 got

(* A store file with a label column dropped or one word short must
   decode to a miss: [make] cold-builds the same instance instead. *)
let test_registry_decode_miss () =
  let drop col segs = List.filter (fun (name, _) -> name <> col) segs in
  let truncate col segs =
    List.map
      (fun (name, a) ->
        if name = col then (name, Iarr.sub a ~pos:0 ~len:(Iarr.length a - 1)) else (name, a))
      segs
  in
  let cases =
    [
      ("LeafColoring", [ ("lc.color", drop); ("tl.left", truncate) ]);
      ("BalancedTree", [ ("bt.parent", drop); ("bt.right_nbr", truncate) ]);
      ("Hybrid-THC(2)", [ ("hy.level", drop); ("hy.color", truncate) ]);
      ("HH-THC(2,3)", [ ("hy.left_nbr", drop); ("hh.bit", truncate) ]);
      ("LeafBitCopy (Ex 7.6)", [ ("gap.depth", drop); ("gap.bits", truncate) ]);
    ]
  in
  List.iter
    (fun (problem, damages) ->
      let e = List.find (fun (e : Registry.entry) -> e.Registry.name = problem) (Registry.all ()) in
      let size = List.hd e.Registry.quick_sizes and seed = 42L in
      let cold_n = (e.Registry.make ~size ~seed ()).Registry.t_n in
      List.iter
        (fun (col, damage) ->
          with_store ~builder_version:Registry.builder_version @@ fun store ->
          ignore (e.Registry.acquire ~store ~size ~seed () : int);
          let l =
            match Store.load store ~problem ~size ~seed with
            | Some l -> l
            | None -> Alcotest.failf "%s: published snapshot misses" problem
          in
          let segments =
            List.map
              (fun s -> (s.Snap.seg_name, Option.get (Snap.seg_find l s.Snap.seg_name)))
              l.Snap.hdr.Snap.segments
          in
          let what = Printf.sprintf "%s without a whole %s" problem col in
          Alcotest.(check bool) (what ^ ": column exists") true (List.mem_assoc col segments);
          Alcotest.(check bool)
            (what ^ ": republished") true
            (Store.publish store ~problem ~size ~seed ~n:l.Snap.hdr.Snap.n
               ~segments:(damage col segments));
          let t = e.Registry.make ~store ~size ~seed () in
          Alcotest.(check bool) (what ^ ": cold build") true (t.Registry.t_source = `Built);
          Alcotest.(check int) (what ^ ": node count") cold_n t.Registry.t_n)
        damages)
    cases

(* --- qcheck properties --------------------------------------------------------- *)

let printable_string_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_bound 24))

let header_gen =
  QCheck.Gen.(
    let* builder_version = printable_string_gen in
    let* problem = printable_string_gen in
    let* size = nat in
    let* seed = map Int64.of_int int in
    let* n = nat in
    let* segments =
      list_size (int_bound 6)
        (let* seg_name = printable_string_gen in
         let* seg_off = nat in
         let* seg_len = nat in
         let* seg_sum = map Int64.of_int int in
         return { Snap.seg_name; seg_off; seg_len; seg_sum })
    in
    return
      { Snap.version = Snap.current_version; builder_version; problem; size; seed; n; segments })

let qcheck_header_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Snap: header codec round-trips exactly"
    (QCheck.make ~print:(fun h -> h.Snap.problem) header_gen)
    (fun h ->
      match Snap.decode_header (Snap.encode_header h) with
      | Ok h' -> h' = h
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (Snap.error_to_string e))

let qcheck_header_garbage =
  QCheck.Test.make ~count:500 ~name:"Snap: decode_header never raises on random bytes"
    QCheck.(string_of_size Gen.(int_bound 200))
    (fun blob ->
      match Snap.decode_header blob with Ok _ -> true | Error (Snap.Bad_header _) -> true | Error _ -> false)

let qcheck_load_garbage =
  QCheck.Test.make ~count:100 ~name:"Snap: load never raises on random files"
    QCheck.(string_of_size Gen.(int_bound 256))
    (fun contents ->
      with_tmp ".fuzz" @@ fun path ->
      write_file path contents;
      match Snap.load ~path with Ok _ -> false | Error _ -> true)

let suites =
  [
    ( "snap",
      [
        Alcotest.test_case "write/load/verify round-trip" `Quick test_roundtrip;
        Alcotest.test_case "every truncation is a structured error" `Quick test_truncations;
        Alcotest.test_case "torn headers, bad checksums, wrong versions" `Quick
          test_corruptions;
        Alcotest.test_case "missing file is Io, not an exception" `Quick test_missing_file;
        Alcotest.test_case "store publish/load/miss semantics" `Quick test_store_roundtrip;
        Alcotest.test_case "stale builder version never serves" `Quick
          test_store_stale_builder;
        Alcotest.test_case "registry-v1 store never serves registry-v2" `Quick
          test_store_registry_v1_stale;
        Alcotest.test_case "registry acquire populates and hits" `Quick test_registry_acquire;
        Alcotest.test_case "registry snapshot bytes are golden" `Quick
          test_registry_golden_bytes;
        Alcotest.test_case "damaged label column is a cold build" `Quick
          test_registry_decode_miss;
        QCheck_alcotest.to_alcotest qcheck_header_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_header_garbage;
        QCheck_alcotest.to_alcotest qcheck_load_garbage;
      ] );
  ]
