(* Planted bugs for the differential-testing net.  They are injected from
   test code only; the product carries no bug flags.

   [vm_cycle_bug program] makes every taken backward jump of [program]'s
   bytecode charge one extra virtual cycle.  Each backward [Jmp t] is
   redirected to a trampoline appended after the code, [Push 1; Work;
   Pop; Jmp t], which charges exactly one cycle and leaves the operand
   stack as it found it.  The VM checks operand-stack capacity only
   against each function's [fi_max_stack], so every bound grows by the
   slot the trampoline pushes.  The rewrite is installed in the program's
   compiled-code cache, where every later VM run of [program] finds it. *)
let vm_cycle_bug program =
  let code = Compile.compile program in
  let targets = ref [] in
  let next = ref (Array.length code.Compile.instrs) in
  let instrs =
    Array.mapi
      (fun i instr ->
        match instr with
        | Compile.Jmp t when t <= i ->
          let trampoline = !next in
          next := trampoline + 4;
          targets := t :: !targets;
          Compile.Jmp trampoline
        | instr -> instr)
      code.Compile.instrs
  in
  let site = { Compile.addr = 0; loc = Srcloc.dummy } in
  let trampolines =
    List.rev !targets
    |> List.concat_map (fun t ->
           Compile.[ Push 1; Work site; Pop; Jmp t ])
  in
  Hashtbl.iter
    (fun _ (f : Compile.func_info) ->
      f.Compile.fi_max_stack <- f.Compile.fi_max_stack + 1)
    code.Compile.funcs;
  Program.set_compiled program
    (Compile.Code
       { code with
         Compile.instrs = Array.append instrs (Array.of_list trampolines) })
