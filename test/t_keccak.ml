let check_s = Alcotest.(check string)

(* Reference vectors from the original Keccak submission / Ethereum. *)
let test_empty () =
  check_s "keccak256(\"\")"
    "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
    (Keccak.digest_hex "")

let test_abc () =
  check_s "keccak256(\"abc\")"
    "0x4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
    (Keccak.digest_hex "abc")

let test_long () =
  (* Exercises multi-block absorption: 200 'a's span two rate blocks.
     Reference value from the Keccak-256 of "aaa...a" (200 bytes). *)
  check_s "200-byte message"
    "0x96ea54061def936c4be90b518992fdc6f12f535068a256229aca54267b4d084d"
    (Keccak.digest_hex (String.make 200 'a'));
  (* A message of exactly the 136-byte rate forces the all-padding block. *)
  check_s "136-byte message"
    "0xa6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e"
    (Keccak.digest_hex (String.make 136 'a'))

(* Padding and block boundaries around the 136-byte rate.  The vectors
   were computed with the loop-and-index permutation (Keccak_ref) and
   cross-checked against an independent big-integer implementation. *)
let test_boundaries () =
  let a n = Keccak.digest_hex (String.make n 'a') in
  (* 135 bytes: the 0x01 and 0x80 padding bits share the last byte (0x81). *)
  check_s "135-byte message"
    "0x34367dc248bbd832f4e3e69dfaac2f92638bd0bbd18f2912ba4ef454919cf446" (a 135);
  check_s "137-byte message"
    "0xd869f639c7046b4929fc92a4d988a8b22c55fbadb802c0c66ebcd484f1915f39" (a 137);
  check_s "271-byte message"
    "0x132f47effd6c8b1b299efa53fe68aece77ec8ae4eb2e294f668eec94f76001e1" (a 271);
  check_s "272-byte message"
    "0xcf7fcd4f705ee749930d19ca84561a9bf62516bd90a471545fa2f49fdc7e63c8" (a 272);
  check_s "273-byte message"
    "0x5a7b8187d2778e614097fac3097573de1fee4d972304d3360796a857029bb176" (a 273)

let test_megabyte () =
  check_s "1 MB message"
    "0x6e1a767599fed3677caee7e239900e994a62fc251249ac0d4d837027648fed89"
    (Keccak.digest_hex (String.init 1_000_000 (fun i -> Char.chr (i land 0xff))))

let test_selectors () =
  check_s "transfer(address,uint256)" "0xa9059cbb"
    (Keccak.selector_hex "transfer(address,uint256)");
  check_s "balanceOf(address)" "0x70a08231" (Keccak.selector_hex "balanceOf(address)");
  check_s "implementation()" "0x5c60da1b" (Keccak.selector_hex "implementation()");
  check_s "proxyType()" "0x4555d5c9" (Keccak.selector_hex "proxyType()")

(* The paper's running example (Listing 1): free_ether_withdrawal() and the
   crafted impl_LUsXCWD2AKCc() share selector 0xdf4a3106. *)
let test_paper_collision () =
  check_s "free_ether_withdrawal()" "0xdf4a3106"
    (Keccak.selector_hex "free_ether_withdrawal()");
  check_s "colliding pair" (Keccak.selector_hex "free_ether_withdrawal()")
    (Keccak.selector_hex "impl_LUsXCWD2AKCc()")

(* EIP constants used by the standard classifier (Table 4). *)
let test_eip_slots () =
  check_s "EIP-1822 PROXIABLE slot"
    "0xc5f16f0fcc639fa48a6947836d9850f504798523bf8c9a3a87d5876cf622bcf7"
    (Keccak.digest_hex "PROXIABLE");
  (* EIP-1967 slot = keccak("eip1967.proxy.implementation") - 1. *)
  let raw = U256.of_bytes_be (Keccak.digest "eip1967.proxy.implementation") in
  check_s "EIP-1967 implementation slot"
    "0x360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc"
    (U256.to_hex_padded (U256.pred raw))

let qcheck_deterministic =
  QCheck.Test.make ~name:"deterministic and 32 bytes" ~count:200
    QCheck.(string_of_size (Gen.int_bound 300))
    (fun s -> Keccak.digest s = Keccak.digest s && String.length (Keccak.digest s) = 32)

let qcheck_distinct =
  QCheck.Test.make ~name:"distinct inputs hash differently" ~count:200
    QCheck.(pair (string_of_size (Gen.int_bound 64)) (string_of_size (Gen.int_bound 64)))
    (fun (a, b) -> a = b || Keccak.digest a <> Keccak.digest b)

(* The straight-line permutation against the loop-and-index reference,
   over lengths that cover zero, one, several and boundary blocks. *)
let qcheck_differential =
  QCheck.Test.make ~name:"matches the reference permutation" ~count:600
    QCheck.(string_of_size (Gen.int_bound 700))
    (fun s -> Keccak.digest s = Keccak_ref.digest s)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "abc" `Quick test_abc;
    Alcotest.test_case "long" `Quick test_long;
    Alcotest.test_case "selectors" `Quick test_selectors;
    Alcotest.test_case "paper collision 0xdf4a3106" `Quick test_paper_collision;
    Alcotest.test_case "eip slots" `Quick test_eip_slots;
    QCheck_alcotest.to_alcotest qcheck_deterministic;
    QCheck_alcotest.to_alcotest qcheck_distinct;
    QCheck_alcotest.to_alcotest qcheck_differential;
    Alcotest.test_case "rate boundaries" `Quick test_boundaries;
    Alcotest.test_case "1 MB" `Quick test_megabyte;
  ]
