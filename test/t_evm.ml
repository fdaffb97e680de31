open Evm

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let u = Alcotest.testable U256.pp U256.equal
let check_u = Alcotest.check u

(* ------------------------------------------------------------------ *)
(* Disassembler                                                        *)
(* ------------------------------------------------------------------ *)

let test_disasm_basic () =
  let code = Hexutil.of_hex "0x6080604052" in
  let instrs = Disasm.disassemble code in
  check_i "count" 3 (List.length instrs);
  match instrs with
  | [ a; b; c ] ->
      check_b "push1 80" true (Opcode.equal a.Disasm.opcode (Opcode.PUSH 1));
      check_s "operand 80" "\x80" a.Disasm.operand;
      check_s "operand 40" "\x40" b.Disasm.operand;
      check_b "mstore" true (Opcode.equal c.Disasm.opcode Opcode.MSTORE);
      check_i "offsets" 4 c.Disasm.offset
  | _ -> Alcotest.fail "expected three instructions"

let test_disasm_truncated_push () =
  (* PUSH4 with only two operand bytes available. *)
  let code = "\x63\xaa\xbb" in
  match Disasm.disassemble code with
  | [ i ] ->
      check_b "push4" true (Opcode.equal i.Disasm.opcode (Opcode.PUSH 4));
      check_s "truncated operand" "\xaa\xbb" i.Disasm.operand
  | _ -> Alcotest.fail "expected a single instruction"

let test_has_opcode () =
  let with_dc = Hexutil.of_hex "0x60005af4" in
  let without = Hexutil.of_hex "0x6000f1" in
  check_b "delegatecall present" true (Disasm.has_opcode with_dc Opcode.DELEGATECALL);
  check_b "delegatecall absent" false (Disasm.has_opcode without Opcode.DELEGATECALL);
  (* DELEGATECALL byte inside a PUSH operand must NOT count. *)
  let hidden = Hexutil.of_hex "0x60f4600052" in
  check_b "byte inside operand ignored" false
    (Disasm.has_opcode hidden Opcode.DELEGATECALL)

let test_jumpdests () =
  let code = Hexutil.of_hex "0x5b60015b" in
  Alcotest.(check (list int)) "dests" [ 0; 3 ] (Disasm.jumpdests code);
  (* A 0x5b inside a PUSH operand is not a JUMPDEST. *)
  let code2 = Hexutil.of_hex "0x605b" in
  Alcotest.(check (list int)) "no dest" [] (Disasm.jumpdests code2)

let test_push_operands () =
  let code = Hexutil.of_hex "0x63deadbeef60aa63cafebabe" in
  Alcotest.(check (list string)) "push4s"
    [ "\xde\xad\xbe\xef"; "\xca\xfe\xba\xbe" ]
    (Disasm.push_operands 4 code);
  Alcotest.(check (list string)) "push1s" [ "\xaa" ] (Disasm.push_operands 1 code)

let test_basic_blocks () =
  let code =
    Asm.assemble
      [
        Asm.Push_int 1;
        Asm.Push_label "dest";
        Asm.Op Opcode.JUMPI;
        Asm.Op Opcode.STOP;
        Asm.Jumpdest "dest";
        Asm.Push_int 0;
        Asm.Op Opcode.STOP;
      ]
  in
  let blocks = Disasm.basic_blocks code in
  check_i "three blocks" 3 (List.length blocks)

let test_cfg_edges () =
  let code =
    Asm.assemble
      [
        Asm.Push_int 1;
        Asm.Push_label "yes";
        Asm.Op Opcode.JUMPI;
        Asm.Push_int 0;
        Asm.Op Opcode.STOP;
        Asm.Jumpdest "yes";
        Asm.Push_label "end";
        Asm.Op Opcode.JUMP;
        Asm.Jumpdest "dead";
        Asm.Op Opcode.STOP;
        Asm.Jumpdest "end";
        Asm.Op Opcode.STOP;
      ]
  in
  let cfg = Cfg.build code in
  check_i "five blocks" 5 (List.length (Cfg.blocks cfg));
  (* Entry block: JUMPI with a resolved target plus fallthrough. *)
  (match Cfg.block_at cfg 0 with
  | Some b ->
      check_i "two successors" 2 (List.length b.Cfg.b_succs);
      check_b "has resolved jump" true
        (List.exists (function Cfg.Jump_to _ -> true | _ -> false) b.Cfg.b_succs)
  | None -> Alcotest.fail "entry block missing");
  (* Reachability from entry skips the dead block. *)
  let reach = Cfg.reachable_from cfg 0 in
  let entries = List.map (fun b -> b.Cfg.b_entry) reach in
  check_i "four reachable blocks" 4 (List.length reach);
  (* the dead block's entry is the JUMPDEST after the JUMP *)
  let dead_entry =
    List.find
      (fun e -> not (List.mem e entries))
      (List.map (fun b -> b.Cfg.b_entry) (Cfg.blocks cfg))
  in
  check_b "dead block excluded" true (dead_entry > 0)

let test_cfg_dynamic_jump_unknown () =
  (* A jump whose target comes off the stack (not an immediate PUSH). *)
  let code =
    Asm.assemble
      [
        Asm.Push_int 5;
        Asm.Op Opcode.CALLDATASIZE;
        Asm.Op Opcode.ADD;
        Asm.Op Opcode.JUMP;
        Asm.Jumpdest "later";
        Asm.Op Opcode.STOP;
      ]
  in
  let cfg = Cfg.build code in
  match Cfg.block_at cfg 0 with
  | Some b ->
      check_b "unknown edge" true (b.Cfg.b_succs = [ Cfg.Unknown ]);
      check_i "conservative reachability" 1 (List.length (Cfg.reachable_from cfg 0))
  | None -> Alcotest.fail "entry block missing"

let test_stack_check () =
  (* The canonical minimal proxy verifies. *)
  let logic = Address.of_hex "0x1234567890123456789012345678901234567890" in
  let eip1167 =
    Hexutil.of_hex "0x363d3d373d3d3d363d73" ^ logic
    ^ Hexutil.of_hex "0x5af43d82803e903d91602b57fd5bf3"
  in
  check_b "eip1167 safe" true (Stack_check.is_safe eip1167);
  (* A program popping an empty stack is flagged with its offset. *)
  let bad = Asm.assemble [ Asm.Push_int 1; Asm.Op Opcode.POP; Asm.Op Opcode.ADD ] in
  (match Stack_check.analyze bad with
  | Stack_check.Underflow { needs; _ } -> check_i "needs two items" 2 needs
  | _ -> Alcotest.fail "expected underflow");
  (* Depth is tracked across resolved jumps. *)
  let ok =
    Asm.assemble
      [
        Asm.Push_int 7;
        Asm.Push_label "use";
        Asm.Op Opcode.JUMP;
        Asm.Jumpdest "use";
        Asm.Op Opcode.POP;
        Asm.Op Opcode.STOP;
      ]
  in
  check_b "value survives the jump" true (Stack_check.is_safe ok);
  let bad_jump =
    Asm.assemble
      [
        Asm.Push_label "use";
        Asm.Op Opcode.JUMP;
        Asm.Jumpdest "use";
        Asm.Op Opcode.POP;
        Asm.Op Opcode.STOP;
      ]
  in
  check_b "underflow past the jump caught" false (Stack_check.is_safe bad_jump)

(* ------------------------------------------------------------------ *)
(* Assembler                                                           *)
(* ------------------------------------------------------------------ *)

let test_asm_labels () =
  let code =
    Asm.assemble
      [ Asm.Push_label "end"; Asm.Op Opcode.JUMP; Asm.Jumpdest "end"; Asm.Op Opcode.STOP ]
  in
  (* PUSH2 0x0004 JUMP JUMPDEST STOP *)
  check_s "layout" "0x610004565b00" (Hexutil.to_hex code)

let test_asm_errors () =
  check_b "undefined label" true
    (match Asm.assemble [ Asm.Push_label "nope" ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_b "duplicate label" true
    (match Asm.assemble [ Asm.Label "a"; Asm.Label "a" ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_b "raw PUSH op rejected" true
    (match Asm.assemble [ Asm.Op (Opcode.PUSH 1) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_opcode_roundtrip () =
  for b = 0 to 255 do
    check_i
      (Printf.sprintf "byte 0x%02x" b)
      b
      (Opcode.to_byte (Opcode.of_byte b))
  done

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let addr n = Address.of_u256 (U256.of_int n)
let alice = addr 0xa11ce
let contract_a = addr 0xc0a
let contract_b = addr 0xc0b

(* Return the single word computed by [prelude] items. *)
let return_word_program items =
  Asm.assemble
    (items
    @ [
        Asm.Push_int 0;
        Asm.Op Opcode.MSTORE;
        Asm.Push_int 32;
        Asm.Push_int 0;
        Asm.Op Opcode.RETURN;
      ])

let run_code ?(input = "") ?(value = U256.zero) code =
  let host = Host.in_memory () in
  Host.with_code host contract_a code;
  if not (U256.is_zero value) then
    host.Host.set_balance alice (U256.of_int 1_000_000_000);
  Interp.execute host
    (Interp.make_call ~caller:alice ~target:contract_a ~input ~value ())

let test_arithmetic_program () =
  let r =
    run_code
      (return_word_program
         [ Asm.Push_int 3; Asm.Push_int 2; Asm.Op Opcode.ADD ])
  in
  check_b "success" true (Interp.succeeded r);
  check_u "2+3" (U256.of_int 5) (Abi.decode_uint r.Interp.return_data)

let test_calldata_echo () =
  (* Return the first calldata word. *)
  let r =
    run_code ~input:(U256.to_bytes_be (U256.of_int 777))
      (return_word_program [ Asm.Push_int 0; Asm.Op Opcode.CALLDATALOAD ])
  in
  check_u "echo" (U256.of_int 777) (Abi.decode_uint r.Interp.return_data)

let test_storage_roundtrip () =
  let code =
    Asm.assemble
      [
        (* sstore(7, 42); return sload(7) *)
        Asm.Push_int 42;
        Asm.Push_int 7;
        Asm.Op Opcode.SSTORE;
        Asm.Push_int 7;
        Asm.Op Opcode.SLOAD;
        Asm.Push_int 0;
        Asm.Op Opcode.MSTORE;
        Asm.Push_int 32;
        Asm.Push_int 0;
        Asm.Op Opcode.RETURN;
      ]
  in
  let r = run_code code in
  check_u "sload" (U256.of_int 42) (Abi.decode_uint r.Interp.return_data)

let test_revert () =
  let code =
    Asm.assemble [ Asm.Push_int 0; Asm.Push_int 0; Asm.Op Opcode.REVERT ]
  in
  let r = run_code code in
  check_b "reverted" true (r.Interp.status = Interp.Reverted)

let test_revert_rolls_back_storage () =
  let host = Host.in_memory () in
  (* Contract stores then reverts; storage must stay empty. *)
  let code =
    Asm.assemble
      [
        Asm.Push_int 1;
        Asm.Push_int 0;
        Asm.Op Opcode.SSTORE;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Op Opcode.REVERT;
      ]
  in
  Host.with_code host contract_a code;
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_b "reverted" true (r.Interp.status = Interp.Reverted);
  check_u "storage rolled back" U256.zero
    (host.Host.get_storage contract_a U256.zero)

let test_invalid_jump () =
  let code = Asm.assemble [ Asm.Push_int 1; Asm.Op Opcode.JUMP ] in
  let r = run_code code in
  check_b "failed" true
    (match r.Interp.status with
    | Interp.Failed (Interp.Invalid_jump 1) -> true
    | _ -> false)

let test_jumpdest_in_push_rejected () =
  (* PUSH1 0x5b; ...; JUMP to offset 1: the 0x5b is operand data. *)
  let code = Hexutil.of_hex "0x605b600156" in
  let r = run_code code in
  check_b "jump into operand fails" true
    (match r.Interp.status with Interp.Failed (Interp.Invalid_jump _) -> true | _ -> false)

let test_stack_underflow () =
  let code = Asm.assemble [ Asm.Op Opcode.ADD ] in
  let r = run_code code in
  check_b "underflow" true
    (match r.Interp.status with
    | Interp.Failed (Interp.Stack_underflow _) -> true
    | _ -> false)

let test_out_of_gas () =
  let host = Host.in_memory () in
  let code =
    return_word_program [ Asm.Push_int 3; Asm.Push_int 2; Asm.Op Opcode.ADD ]
  in
  Host.with_code host contract_a code;
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ~gas:5 ())
  in
  check_b "oog" true
    (match r.Interp.status with Interp.Failed Interp.Out_of_gas -> true | _ -> false)

let test_infinite_loop_hits_step_limit () =
  let code =
    Asm.assemble [ Asm.Jumpdest "top"; Asm.Push_label "top"; Asm.Op Opcode.JUMP ]
  in
  let host = Host.in_memory () in
  Host.with_code host contract_a code;
  let r =
    Interp.execute ~step_limit:1000 host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_b "bounded" true
    (match r.Interp.status with
    | Interp.Failed (Interp.Step_limit_exceeded | Interp.Out_of_gas) -> true
    | _ -> false)

let test_keccak_opcode () =
  (* keccak256 of empty memory range must equal keccak(""). *)
  let r =
    run_code
      (return_word_program
         [ Asm.Push_int 0; Asm.Push_int 0; Asm.Op Opcode.KECCAK256 ])
  in
  check_u "keccak(\"\")"
    (U256.of_bytes_be (Keccak.digest ""))
    (Abi.decode_uint r.Interp.return_data)

let test_env_opcodes () =
  let r = run_code (return_word_program [ Asm.Op Opcode.CHAINID ]) in
  check_u "chainid 1" U256.one (Abi.decode_uint r.Interp.return_data);
  let r = run_code (return_word_program [ Asm.Op Opcode.NUMBER ]) in
  check_u "block number"
    (U256.of_int Host.default_block.Host.number)
    (Abi.decode_uint r.Interp.return_data);
  let r = run_code (return_word_program [ Asm.Op Opcode.CALLER ]) in
  check_u "caller" (Address.to_u256 alice) (Abi.decode_uint r.Interp.return_data);
  let r = run_code (return_word_program [ Asm.Op Opcode.ADDRESS ]) in
  check_u "address" (Address.to_u256 contract_a)
    (Abi.decode_uint r.Interp.return_data)

let test_callvalue_and_balance () =
  let r =
    run_code ~value:(U256.of_int 555)
      (return_word_program [ Asm.Op Opcode.CALLVALUE ])
  in
  check_u "callvalue" (U256.of_int 555) (Abi.decode_uint r.Interp.return_data);
  let r =
    run_code ~value:(U256.of_int 700)
      (return_word_program [ Asm.Op Opcode.SELFBALANCE ])
  in
  check_u "selfbalance" (U256.of_int 700) (Abi.decode_uint r.Interp.return_data)

(* Cross-contract CALL: B returns 99; A calls B and returns B's result. *)
let call_and_return_program callee =
  Asm.assemble
    [
      (* call(gas, callee, 0, 0, 0, 0, 32) *)
      Asm.Push_int 32;
      Asm.Push_int 0;
      Asm.Push_int 0;
      Asm.Push_int 0;
      Asm.Push_int 0;
      Asm.Push_u256 (Address.to_u256 callee);
      Asm.Op Opcode.GAS;
      Asm.Op Opcode.CALL;
      Asm.Op Opcode.POP;
      Asm.Push_int 32;
      Asm.Push_int 0;
      Asm.Op Opcode.RETURN;
    ]

let test_call () =
  let host = Host.in_memory () in
  Host.with_code host contract_b (return_word_program [ Asm.Push_int 99 ]);
  Host.with_code host contract_a (call_and_return_program contract_b);
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_b "success" true (Interp.succeeded r);
  check_u "returned 99" (U256.of_int 99) (Abi.decode_uint r.Interp.return_data)

(* DELEGATECALL storage-context semantics: logic writes slot 0; when invoked
   through delegatecall from the proxy, the PROXY's slot 0 changes. *)
let test_delegatecall_context () =
  let host = Host.in_memory () in
  let logic =
    Asm.assemble
      [ Asm.Push_int 1234; Asm.Push_int 0; Asm.Op Opcode.SSTORE; Asm.Op Opcode.STOP ]
  in
  let proxy =
    Asm.assemble
      [
        (* delegatecall(gas, logic, 0, 0, 0, 0) *)
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Push_u256 (Address.to_u256 contract_b);
        Asm.Op Opcode.GAS;
        Asm.Op Opcode.DELEGATECALL;
        Asm.Op Opcode.POP;
        Asm.Op Opcode.STOP;
      ]
  in
  Host.with_code host contract_b logic;
  Host.with_code host contract_a proxy;
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_b "success" true (Interp.succeeded r);
  check_u "proxy slot written" (U256.of_int 1234)
    (host.Host.get_storage contract_a U256.zero);
  check_u "logic slot untouched" U256.zero
    (host.Host.get_storage contract_b U256.zero)

(* DELEGATECALL preserves msg.sender: logic returns CALLER; through the
   proxy the caller seen must be alice, not the proxy. *)
let test_delegatecall_sender () =
  let host = Host.in_memory () in
  Host.with_code host contract_b (return_word_program [ Asm.Op Opcode.CALLER ]);
  let proxy =
    Asm.assemble
      [
        Asm.Push_int 32;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Push_u256 (Address.to_u256 contract_b);
        Asm.Op Opcode.GAS;
        Asm.Op Opcode.DELEGATECALL;
        Asm.Op Opcode.POP;
        Asm.Push_int 32;
        Asm.Push_int 0;
        Asm.Op Opcode.RETURN;
      ]
  in
  Host.with_code host contract_a proxy;
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_u "sender preserved" (Address.to_u256 alice)
    (Abi.decode_uint r.Interp.return_data)

(* The canonical EIP-1167 minimal proxy bytecode must run unmodified. *)
let eip1167_runtime logic =
  Hexutil.of_hex "0x363d3d373d3d3d363d73"
  ^ logic
  ^ Hexutil.of_hex "0x5af43d82803e903d91602b57fd5bf3"

let test_eip1167_canonical () =
  let host = Host.in_memory () in
  (* Logic: returns the first calldata word plus one. *)
  Host.with_code host contract_b
    (return_word_program
       [ Asm.Push_int 0; Asm.Op Opcode.CALLDATALOAD; Asm.Push_int 1; Asm.Op Opcode.ADD ]);
  Host.with_code host contract_a (eip1167_runtime contract_b);
  let input = U256.to_bytes_be (U256.of_int 41) in
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input ())
  in
  check_b "success" true (Interp.succeeded r);
  check_u "forwarded and returned" (U256.of_int 42)
    (Abi.decode_uint r.Interp.return_data);
  (* And reverts propagate. *)
  let reverter =
    Asm.assemble [ Asm.Push_int 0; Asm.Push_int 0; Asm.Op Opcode.REVERT ]
  in
  Host.with_code host contract_b reverter;
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input ())
  in
  check_b "revert propagates" true (r.Interp.status = Interp.Reverted)

let test_static_call_blocks_writes () =
  let host = Host.in_memory () in
  let writer =
    Asm.assemble
      [ Asm.Push_int 1; Asm.Push_int 0; Asm.Op Opcode.SSTORE; Asm.Op Opcode.STOP ]
  in
  Host.with_code host contract_b writer;
  let static_caller =
    Asm.assemble
      [
        (* staticcall(gas, b, 0, 0, 0, 0); return the success flag *)
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Push_u256 (Address.to_u256 contract_b);
        Asm.Op Opcode.GAS;
        Asm.Op Opcode.STATICCALL;
        Asm.Push_int 0;
        Asm.Op Opcode.MSTORE;
        Asm.Push_int 32;
        Asm.Push_int 0;
        Asm.Op Opcode.RETURN;
      ]
  in
  Host.with_code host contract_a static_caller;
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_u "inner call failed" U256.zero (Abi.decode_uint r.Interp.return_data);
  check_u "no write happened" U256.zero (host.Host.get_storage contract_b U256.zero)

let test_create_deploys () =
  let host = Host.in_memory () in
  host.Host.set_balance alice (U256.of_int 1_000_000);
  (* Init code returning a 1-byte runtime (STOP). *)
  let init =
    Asm.assemble
      [
        Asm.Push_int 0x00;
        (* STOP opcode as the runtime, stored via MSTORE8 *)
        Asm.Push_int 0;
        Asm.Op Opcode.MSTORE8;
        Asm.Push_int 1;
        Asm.Push_int 0;
        Asm.Op Opcode.RETURN;
      ]
  in
  let r =
    Interp.create host ~caller:alice ~value:U256.zero ~init_code:init
      ~gas:1_000_000
  in
  check_b "created" true (Interp.succeeded r);
  match r.Interp.created with
  | None -> Alcotest.fail "no address"
  | Some a ->
      check_s "deployed runtime" "\x00" (host.Host.get_code a);
      check_s "derived address"
        (Hexutil.to_hex (Rlp.contract_address ~sender:alice ~nonce:0))
        (Address.to_hex a)

let test_create2_address () =
  let host = Host.in_memory () in
  host.Host.set_balance contract_a (U256.of_int 1_000_000);
  let runtime_byte = "\x00" in
  let init =
    Asm.assemble
      [
        Asm.Push_int 0x00;
        Asm.Push_int 0;
        Asm.Op Opcode.MSTORE8;
        Asm.Push_int 1;
        Asm.Push_int 0;
        Asm.Op Opcode.RETURN;
      ]
  in
  ignore runtime_byte;
  let salt = U256.of_int 0x1234 in
  let r =
    Interp.create ~salt:(Some salt) host ~caller:contract_a ~value:U256.zero
      ~init_code:init ~gas:1_000_000
  in
  check_b "created" true (Interp.succeeded r);
  match r.Interp.created with
  | None -> Alcotest.fail "no address"
  | Some a ->
      check_s "create2 derivation"
        (Hexutil.to_hex (Rlp.create2_address ~sender:contract_a ~salt ~init_code:init))
        (Address.to_hex a)

let test_value_transfer_via_call () =
  let host = Host.in_memory () in
  host.Host.set_balance alice (U256.of_int 1000);
  Host.with_code host contract_a (Asm.assemble [ Asm.Op Opcode.STOP ]);
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:""
         ~value:(U256.of_int 400) ())
  in
  check_b "success" true (Interp.succeeded r);
  check_u "alice debited" (U256.of_int 600) (host.Host.get_balance alice);
  check_u "contract credited" (U256.of_int 400) (host.Host.get_balance contract_a)

let test_insufficient_balance () =
  let host = Host.in_memory () in
  Host.with_code host contract_a (Asm.assemble [ Asm.Op Opcode.STOP ]);
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:""
         ~value:(U256.of_int 400) ())
  in
  check_b "failed" true
    (r.Interp.status = Interp.Failed Interp.Insufficient_balance)

(* Tracer observations: the delegatecall event carries the forwarded input
   and the SLOAD that produced the target address is visible. *)
let test_tracer_observations () =
  let host = Host.in_memory () in
  let slot = U256.of_int 7 in
  host.Host.set_storage contract_a slot (Address.to_u256 contract_b);
  Host.with_code host contract_b (Asm.assemble [ Asm.Op Opcode.STOP ]);
  let proxy =
    Asm.assemble
      [
        (* delegatecall(gas, sload(7), 0, calldatasize, 0, 0) after copying
           calldata to memory — a storage-slot proxy in miniature. *)
        Asm.Op Opcode.CALLDATASIZE;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Op Opcode.CALLDATACOPY;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Op Opcode.CALLDATASIZE;
        Asm.Push_int 0;
        Asm.Push_int 7;
        Asm.Op Opcode.SLOAD;
        Asm.Op Opcode.GAS;
        Asm.Op Opcode.DELEGATECALL;
        Asm.Op Opcode.POP;
        Asm.Op Opcode.STOP;
      ]
  in
  Host.with_code host contract_a proxy;
  let calls = ref [] in
  let sloads = ref [] in
  let tracer =
    {
      Interp.no_tracer with
      Interp.on_call = (fun ev -> calls := ev :: !calls);
      Interp.on_sload = (fun a s v -> sloads := (a, s, v) :: !sloads);
    }
  in
  let input = Hexutil.of_hex "0xdeadbeef0011" in
  let r =
    Interp.execute ~tracer host
      (Interp.make_call ~caller:alice ~target:contract_a ~input ())
  in
  check_b "success" true (Interp.succeeded r);
  (match !calls with
  | [ ev ] ->
      check_b "kind" true (ev.Interp.kind = Interp.Delegatecall);
      check_s "input forwarded verbatim" (Hexutil.to_hex input)
        (Hexutil.to_hex ev.Interp.input);
      check_s "code address" (Address.to_hex contract_b)
        (Address.to_hex ev.Interp.code_address);
      check_s "context stays proxy" (Address.to_hex contract_a)
        (Address.to_hex ev.Interp.context_address)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 call event, got %d" (List.length l)));
  match !sloads with
  | [ (a, s, v) ] ->
      check_s "sload addr" (Address.to_hex contract_a) (Address.to_hex a);
      check_u "sload slot" slot s;
      check_u "sload value" (Address.to_u256 contract_b) v
  | l -> Alcotest.fail (Printf.sprintf "expected 1 sload, got %d" (List.length l))

let test_logs () =
  let host = Host.in_memory () in
  let code =
    Asm.assemble
      [
        Asm.Push_int 0xAB;
        (* topic *)
        Asm.Push_int 0;
        (* len *)
        Asm.Push_int 0;
        (* offset *)
        Asm.Op (Opcode.LOG 1);
        Asm.Op Opcode.STOP;
      ]
  in
  Host.with_code host contract_a code;
  let r =
    Interp.execute host
      (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_i "one log" 1 (List.length r.Interp.logs);
  match r.Interp.logs with
  | [ l ] ->
      check_u "topic" (U256.of_int 0xAB) (List.hd l.Interp.topics);
      check_s "address" (Address.to_hex contract_a) (Address.to_hex l.Interp.log_address)
  | _ -> Alcotest.fail "log missing"

let test_extcode_ops () =
  let host = Host.in_memory () in
  let b_code = Asm.assemble [ Asm.Op Opcode.STOP; Asm.Op Opcode.STOP; Asm.Op Opcode.STOP ] in
  Host.with_code host contract_b b_code;
  let code =
    return_word_program
      [ Asm.Push_u256 (Address.to_u256 contract_b); Asm.Op Opcode.EXTCODESIZE ]
  in
  Host.with_code host contract_a code;
  let r =
    Interp.execute host (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_u "extcodesize" (U256.of_int 3) (Abi.decode_uint r.Interp.return_data);
  (* EXTCODEHASH of an existing account is keccak(code); of a void one, 0. *)
  let hash_prog addr =
    return_word_program
      [ Asm.Push_u256 (Address.to_u256 addr); Asm.Op Opcode.EXTCODEHASH ]
  in
  Host.with_code host contract_a (hash_prog contract_b);
  let r =
    Interp.execute host (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_u "extcodehash" (U256.of_bytes_be (Keccak.digest b_code))
    (Abi.decode_uint r.Interp.return_data);
  Host.with_code host contract_a (hash_prog (addr 0xdead99));
  let r =
    Interp.execute host (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_u "extcodehash of void" U256.zero (Abi.decode_uint r.Interp.return_data)

let test_blockhash_window () =
  (* Only the most recent 256 blocks have hashes; everything else is 0. *)
  let prog h =
    return_word_program [ Asm.Push_int h; Asm.Op Opcode.BLOCKHASH ]
  in
  let current = Host.default_block.Host.number in
  let run h =
    let host = Host.in_memory () in
    Host.with_code host contract_a (prog h);
    Abi.decode_uint
      (Interp.execute host
         (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ()))
        .Interp.return_data
  in
  check_b "recent block has a hash" false (U256.is_zero (run (current - 10)));
  check_u "ancient block is zero" U256.zero (run (current - 300));
  check_u "future block is zero" U256.zero (run (current + 1))

let test_log_arities () =
  (* LOG0 and LOG4 at the extremes of the topic range. *)
  let host = Host.in_memory () in
  let code =
    Asm.assemble
      [
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Op (Opcode.LOG 0);
        Asm.Push_int 4;
        Asm.Push_int 3;
        Asm.Push_int 2;
        Asm.Push_int 1;
        Asm.Push_int 0;
        Asm.Push_int 0;
        Asm.Op (Opcode.LOG 4);
        Asm.Op Opcode.STOP;
      ]
  in
  Host.with_code host contract_a code;
  let r =
    Interp.execute host (Interp.make_call ~caller:alice ~target:contract_a ~input:"" ())
  in
  check_b "success" true (Interp.succeeded r);
  check_i "two logs" 2 (List.length r.Interp.logs);
  match r.Interp.logs with
  | [ l0; l4 ] ->
      check_i "log0 topics" 0 (List.length l0.Interp.topics);
      Alcotest.(check (list string))
        "log4 topic order"
        [ "0x1"; "0x2"; "0x3"; "0x4" ]
        (List.map U256.to_hex l4.Interp.topics)
  | _ -> Alcotest.fail "logs"

let test_asm_size_limit () =
  check_b "oversized program rejected" true
    (match Asm.assemble [ Asm.Raw (String.make 70_000 '\000'); Asm.Label "x" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* ABI                                                                 *)
(* ------------------------------------------------------------------ *)

let test_abi_encode () =
  let data =
    Abi.encode_call ~signature:"transfer(address,uint256)"
      [ Abi.Addr (addr 0x1234); Abi.Uint (U256.of_int 1000) ]
  in
  check_s "selector" "0xa9059cbb" (Hexutil.to_hex (Hexutil.take 4 data));
  check_i "length" (4 + 64) (String.length data);
  check_u "second arg" (U256.of_int 1000)
    (U256.of_bytes_be (Hexutil.slice data 36 32))

let test_abi_dynamic_bytes () =
  let payload = "hello world" in
  let data = Abi.encode_args [ Abi.Uint U256.one; Abi.Bytes payload ] in
  (* head: word 0 = 1; word 1 = offset 64; tail: length + padded data *)
  check_u "static head" U256.one (U256.of_bytes_be (Hexutil.slice data 0 32));
  check_u "offset" (U256.of_int 64) (U256.of_bytes_be (Hexutil.slice data 32 32));
  check_u "length" (U256.of_int 11) (U256.of_bytes_be (Hexutil.slice data 64 32));
  check_s "payload" payload (String.sub data 96 11)

let test_abi_int_twos_complement () =
  (* Int values are encoded as raw two's-complement words. *)
  let minus_one = U256.neg U256.one in
  let data = Abi.encode_args [ Abi.Int minus_one ] in
  check_u "minus one is all-ones" U256.max_value
    (U256.of_bytes_be (Hexutil.slice data 0 32))

let test_abi_fixed_bytes () =
  let data = Abi.encode_args [ Abi.Fixed_bytes "\xde\xad" ] in
  check_s "right padded" "\xde\xad" (String.sub data 0 2);
  check_u "rest is zero" U256.zero
    (U256.of_bytes_be (Hexutil.slice data 2 30));
  check_b "oversized rejected" true
    (match Abi.encode_args [ Abi.Fixed_bytes (String.make 33 'x') ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_random_selector_avoids () =
  let busy = [ "\xaa\xbb\xcc\xdd"; Keccak.selector "transfer(address,uint256)" ] in
  let s = Abi.random_selector ~unavailable:busy ~seed:1 in
  check_i "4 bytes" 4 (String.length s);
  check_b "avoids busy list" false (List.mem s busy);
  check_s "deterministic" (Hexutil.to_hex s)
    (Hexutil.to_hex (Abi.random_selector ~unavailable:busy ~seed:1))

(* Host snapshot semantics used by revert paths. *)
let test_host_snapshots () =
  let host = Host.in_memory () in
  host.Host.set_balance alice (U256.of_int 10);
  let snap = host.Host.snapshot () in
  host.Host.set_balance alice (U256.of_int 99);
  host.Host.set_storage contract_a U256.one (U256.of_int 5);
  host.Host.create_account contract_b ~code:"\x00";
  host.Host.revert_to snap;
  check_u "balance restored" (U256.of_int 10) (host.Host.get_balance alice);
  check_u "storage restored" U256.zero (host.Host.get_storage contract_a U256.one);
  check_s "code removed" "" (host.Host.get_code contract_b)

(* Host code hashes: [get_code_hash] is stored when code is installed and
   must follow every path that changes the code. *)
let empty_hash = Keccak.digest ""

let check_hash name host a expected =
  check_s name (Hexutil.to_hex (Keccak.digest expected))
    (Hexutil.to_hex (host.Host.get_code_hash a));
  check_s (name ^ " (matches get_code)")
    (Hexutil.to_hex (Keccak.digest (host.Host.get_code a)))
    (Hexutil.to_hex (host.Host.get_code_hash a))

let test_host_code_hash () =
  let host, admin = Host.in_memory_admin () in
  check_hash "absent account" host contract_a "";
  let c1 = "\x60\x01\x00" and c2 = "\x60\x02\x00" in
  host.Host.create_account contract_a ~code:c1;
  check_hash "create_account" host contract_a c1;
  (* Nested snapshots: overwrite, then selfdestruct, then unwind both. *)
  let outer = host.Host.snapshot () in
  host.Host.create_account contract_a ~code:c2;
  check_hash "overwrite" host contract_a c2;
  let inner = host.Host.snapshot () in
  host.Host.selfdestruct contract_a ~beneficiary:alice;
  check_hash "selfdestruct" host contract_a "";
  (* EXTCODEHASH of the now-void account still pushes 0. *)
  Host.with_code host contract_b
    (return_word_program
       [ Asm.Push_u256 (Address.to_u256 contract_a); Asm.Op Opcode.EXTCODEHASH ]);
  let r =
    Interp.execute host (Interp.make_call ~caller:alice ~target:contract_b ~input:"" ())
  in
  check_u "extcodehash of a selfdestructed account" U256.zero
    (Abi.decode_uint r.Interp.return_data);
  host.Host.revert_to inner;
  check_hash "revert selfdestruct" host contract_a c2;
  host.Host.revert_to outer;
  check_hash "revert overwrite" host contract_a c1;
  (* Dropping the account takes its hash with it. *)
  admin.Host.commit ();
  admin.Host.drop_account contract_a;
  check_hash "drop_account" host contract_a "";
  check_s "empty hash constant" (Hexutil.to_hex empty_hash)
    "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"

let test_overlay_code_hash () =
  let base = Host.in_memory () in
  let c1 = "\x60\x01\x00" and c2 = "\x60\x02\x00" in
  Host.with_code base contract_a c1;
  let ov = Host.overlay base in
  check_hash "falls through to the base" ov contract_a c1;
  let mark = ov.Host.snapshot () in
  ov.Host.create_account contract_a ~code:c2;
  check_hash "shadowing write" ov contract_a c2;
  check_hash "base untouched" base contract_a c1;
  let mark2 = ov.Host.snapshot () in
  ov.Host.selfdestruct contract_a ~beneficiary:alice;
  check_hash "overlay selfdestruct" ov contract_a "";
  ov.Host.revert_to mark2;
  check_hash "revert overlay selfdestruct" ov contract_a c2;
  ov.Host.revert_to mark;
  check_hash "revert shadowing write" ov contract_a c1;
  ov.Host.create_account contract_b ~code:c2;
  check_hash "fresh overlay account" ov contract_b c2;
  check_hash "absent in the base" base contract_b ""

(* CREATE installs the init code at the new address while the init frame
   runs; the hash left behind must be the deployed code's, or the empty
   hash when the init frame reverts. *)
let test_create_code_hash () =
  let host = Host.in_memory () in
  host.Host.set_balance alice (U256.of_int 1_000_000);
  let init =
    Asm.assemble
      [
        Asm.Push_int 0x00;
        Asm.Push_int 0;
        Asm.Op Opcode.MSTORE8;
        Asm.Push_int 1;
        Asm.Push_int 0;
        Asm.Op Opcode.RETURN;
      ]
  in
  let r =
    Interp.create host ~caller:alice ~value:U256.zero ~init_code:init
      ~gas:1_000_000
  in
  (match r.Interp.created with
  | None -> Alcotest.fail "no address"
  | Some a -> check_hash "deployed, not init, code" host a "\x00");
  let reverting =
    Asm.assemble [ Asm.Push_int 0; Asm.Push_int 0; Asm.Op Opcode.REVERT ]
  in
  let r =
    Interp.create host ~caller:alice ~value:U256.zero ~init_code:reverting
      ~gas:1_000_000
  in
  check_b "reverted create" false (Interp.succeeded r);
  let a = Rlp.contract_address ~sender:alice ~nonce:1 in
  check_hash "reverted init leaves no hash" host a ""

let suite =
  [
    Alcotest.test_case "disasm basic" `Quick test_disasm_basic;
    Alcotest.test_case "disasm truncated push" `Quick test_disasm_truncated_push;
    Alcotest.test_case "has_opcode" `Quick test_has_opcode;
    Alcotest.test_case "jumpdests" `Quick test_jumpdests;
    Alcotest.test_case "push operands" `Quick test_push_operands;
    Alcotest.test_case "basic blocks" `Quick test_basic_blocks;
    Alcotest.test_case "cfg edges" `Quick test_cfg_edges;
    Alcotest.test_case "cfg dynamic jump" `Quick test_cfg_dynamic_jump_unknown;
    Alcotest.test_case "static stack verification" `Quick test_stack_check;
    Alcotest.test_case "asm labels" `Quick test_asm_labels;
    Alcotest.test_case "asm errors" `Quick test_asm_errors;
    Alcotest.test_case "opcode byte round-trip" `Quick test_opcode_roundtrip;
    Alcotest.test_case "arithmetic program" `Quick test_arithmetic_program;
    Alcotest.test_case "calldata echo" `Quick test_calldata_echo;
    Alcotest.test_case "storage roundtrip" `Quick test_storage_roundtrip;
    Alcotest.test_case "revert" `Quick test_revert;
    Alcotest.test_case "revert rolls back storage" `Quick test_revert_rolls_back_storage;
    Alcotest.test_case "invalid jump" `Quick test_invalid_jump;
    Alcotest.test_case "jumpdest inside push" `Quick test_jumpdest_in_push_rejected;
    Alcotest.test_case "stack underflow" `Quick test_stack_underflow;
    Alcotest.test_case "out of gas" `Quick test_out_of_gas;
    Alcotest.test_case "step limit" `Quick test_infinite_loop_hits_step_limit;
    Alcotest.test_case "keccak opcode" `Quick test_keccak_opcode;
    Alcotest.test_case "env opcodes" `Quick test_env_opcodes;
    Alcotest.test_case "callvalue/balance" `Quick test_callvalue_and_balance;
    Alcotest.test_case "cross-contract call" `Quick test_call;
    Alcotest.test_case "delegatecall storage context" `Quick test_delegatecall_context;
    Alcotest.test_case "delegatecall sender" `Quick test_delegatecall_sender;
    Alcotest.test_case "EIP-1167 canonical bytecode" `Quick test_eip1167_canonical;
    Alcotest.test_case "staticcall blocks writes" `Quick test_static_call_blocks_writes;
    Alcotest.test_case "create" `Quick test_create_deploys;
    Alcotest.test_case "create2" `Quick test_create2_address;
    Alcotest.test_case "value transfer" `Quick test_value_transfer_via_call;
    Alcotest.test_case "insufficient balance" `Quick test_insufficient_balance;
    Alcotest.test_case "tracer observations" `Quick test_tracer_observations;
    Alcotest.test_case "logs" `Quick test_logs;
    Alcotest.test_case "abi encode" `Quick test_abi_encode;
    Alcotest.test_case "abi dynamic bytes" `Quick test_abi_dynamic_bytes;
    Alcotest.test_case "abi int encoding" `Quick test_abi_int_twos_complement;
    Alcotest.test_case "abi fixed bytes" `Quick test_abi_fixed_bytes;
    Alcotest.test_case "random selector" `Quick test_random_selector_avoids;
    Alcotest.test_case "host snapshots" `Quick test_host_snapshots;
    Alcotest.test_case "extcode ops" `Quick test_extcode_ops;
    Alcotest.test_case "blockhash window" `Quick test_blockhash_window;
    Alcotest.test_case "log arities" `Quick test_log_arities;
    Alcotest.test_case "asm size limit" `Quick test_asm_size_limit;
    Alcotest.test_case "host code hash" `Quick test_host_code_hash;
    Alcotest.test_case "overlay code hash" `Quick test_overlay_code_hash;
    Alcotest.test_case "create code hash" `Quick test_create_code_hash;
  ]
