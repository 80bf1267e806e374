//! Stackful coroutines ("fibers") for the scheduler's single-OS-thread
//! backend.
//!
//! The conservative scheduler serializes logical threads anyway — at any
//! instant exactly one thread is allowed to execute its next event — so
//! running each logical thread on its own OS thread buys no parallelism and
//! pays a futex wake plus a kernel context switch per hand-off. This module
//! provides the primitive that removes that cost: a minimal stackful
//! coroutine with an assembly context switch (~tens of nanoseconds) and an
//! mmap-backed, guard-paged stack, so `Sim::run` can multiplex all logical
//! threads onto the calling OS thread and suspend/resume them at exactly
//! the points where the OS-thread backend passes its baton and parks. A
//! switch goes from any context to any other: fibers hand the turn
//! directly to one another, and the driver (the context that called
//! `Sim::run`) is switched to only when nothing is runnable.
//!
//! A `Sim` owns its fibers' stacks ([`Stacks`]): its first multi-threaded
//! run takes them off its OS thread's free list or maps them, every later
//! run lays a fresh boot frame on the same ones, and a dropped `Sim`
//! leaves them on the free list again.
//!
//! Only the switching *mechanism* lives here; every scheduling decision
//! (who runs next) and everything around the switch stays in `exec.rs`, on
//! the one code path both backends run, which is what keeps the two
//! bit-identical.
//!
//! x86-64 Linux only (`SUPPORTED`); other targets keep the OS-thread
//! backend.

/// Whether the fiber backend can be used on this target.
pub(crate) const SUPPORTED: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use imp::{switch, Stacks};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    /// Usable stack bytes per fiber. Matches the default for spawned OS
    /// threads (`std::thread` uses 2 MiB), which the workloads already fit
    /// in; a guard page below the stack turns overflow into a fault instead
    /// of silent corruption.
    const STACK_BYTES: usize = 2 << 20;
    const PAGE: usize = 4096;

    const PROT_NONE: usize = 0;
    const PROT_READ_WRITE: usize = 1 | 2;
    const MAP_PRIVATE_ANON: usize = 0x02 | 0x20;

    /// `mmap` the whole region `PROT_NONE`, then open up everything above
    /// the lowest page — the stack grows down into the guard. Dropping it
    /// unmaps it.
    pub(crate) struct Stack {
        base: *mut u8,
        len: usize,
    }

    // SAFETY: the region is exclusively owned (mmap'd here, unmapped only
    // by the drop), and a stack moves to another thread only idle — on a
    // free list, or in a `Sim` between runs, when no context lives on it.
    unsafe impl Send for Stack {}

    impl Stack {
        fn map() -> Stack {
            let len = PAGE + STACK_BYTES;
            unsafe {
                let p = syscall6(9, 0, len, PROT_NONE, MAP_PRIVATE_ANON, usize::MAX, 0);
                assert!(
                    (p as isize) > 0,
                    "fiber stack mmap failed (errno {})",
                    -(p as isize)
                );
                let r = syscall6(10, p + PAGE, STACK_BYTES, PROT_READ_WRITE, 0, 0, 0);
                assert_eq!(r as isize, 0, "fiber stack mprotect failed");
                Stack {
                    base: p as *mut u8,
                    len,
                }
            }
        }

        fn top(&self) -> *mut u8 {
            // mmap returns page-aligned memory, so the top is 16-aligned.
            unsafe { self.base.add(self.len) }
        }

        /// Lay a fresh boot frame at the top of this stack and return the
        /// stack pointer that, when first switched to, calls `entry(arg)`.
        /// `entry` must never return (it must switch away forever once
        /// finished). Whatever an earlier fiber left on the stack is dead:
        /// the frame is built from scratch.
        ///
        /// # Safety
        /// No context may be running on, or suspended in, this stack: the
        /// frame overwrites its top.
        pub(crate) unsafe fn boot(
            &self,
            entry: unsafe extern "C" fn(*mut u8) -> !,
            arg: *mut u8,
        ) -> *mut u8 {
            // Frame layout (from the saved stack pointer, upward):
            //   +0  fcw/mxcsr   +8 r15   +16 r14   +24 r13 (entry)
            //   +32 r12 (arg)   +40 rbx  +48 rbp   +56 ret (boot shim)
            //   +64.. padding to the 16-aligned stack top.
            // The boot shim is entered with rsp ≡ 0 (mod 16), so its
            // `call` leaves the stack ABI-aligned for `entry`.
            let sp = self.top().sub(80) as *mut u64;
            sp.write_bytes(0, 10);
            *sp = FPU_DEFAULTS;
            *sp.add(3) = entry as *const () as u64;
            *sp.add(4) = arg as u64;
            *sp.add(7) = tm_sim_fiber_boot as *const () as u64;
            sp as *mut u8
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: the region is this stack's own mapping, and nothing
            // runs on or points into a stack that is dropped.
            unsafe {
                syscall6(11, self.base as usize, self.len, 0, 0, 0, 0);
            }
        }
    }

    // A fiber stack costs an mmap + mprotect to create, an munmap to
    // destroy, and — the dominant, hidden cost — a fresh round of page
    // faults to fault its hot pages back in on every reuse. So a `Sim`
    // keeps the stacks of its runs for all later ones ([`Stacks`]), and a
    // dropped `Sim` leaves them on its OS thread's free list, mapping and
    // pages still resident, for the next run there that lacks stacks. The
    // list is the thread's own: no lock, and a `Sim` touches it when its
    // first multi-threaded run takes stacks and when it is dropped.
    thread_local! {
        static FREE: std::cell::RefCell<Vec<Stack>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    /// Mapped-but-idle stacks a free list keeps at most; beyond this, a
    /// dropped `Sim`'s stacks are unmapped. 64 × ~2 MiB bounds it at
    /// ~128 MiB of mostly untouched (hence unbacked) address space.
    const POOL_MAX: usize = 64;

    /// The fiber stacks one `Sim` owns: slot `tid` is logical thread
    /// `tid`'s stack in every multi-threaded run.
    #[derive(Default)]
    pub(crate) struct Stacks(Vec<Stack>);

    impl Stacks {
        /// The first `n` stacks. The ones still missing come off this OS
        /// thread's free list, and are mapped when it runs dry.
        pub(crate) fn first(&mut self, n: usize) -> &[Stack] {
            if self.0.len() < n {
                // `try_with`: a thread tearing down its locals maps afresh.
                let _ = FREE.try_with(|free| {
                    let mut free = free.borrow_mut();
                    let take = free.len().min(n - self.0.len());
                    let keep = free.len() - take;
                    self.0.extend(free.drain(keep..));
                });
                while self.0.len() < n {
                    self.0.push(Stack::map());
                }
            }
            &self.0[..n]
        }
    }

    impl Drop for Stacks {
        fn drop(&mut self) {
            let mut stacks = std::mem::take(&mut self.0);
            // What does not fit (or a thread tearing down) unmaps on drop.
            let _ = FREE.try_with(|free| {
                let mut free = free.borrow_mut();
                let room = POOL_MAX.saturating_sub(free.len()).min(stacks.len());
                free.extend(stacks.drain(..room));
            });
        }
    }

    #[inline]
    unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> usize {
        let r: usize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => r,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        r
    }

    // The context switch: save the System V callee-saved state (rbx, rbp,
    // r12–r15, the x87 control word and mxcsr) plus the stack pointer into
    // `*save`, then resume the context whose stack pointer is `to`. A fiber
    // is born with a hand-built frame whose "return address" is
    // `tm_sim_fiber_boot`, which forwards the two values planted in r12/r13
    // (argument pointer and entry function) into a normal `call`. Each
    // symbol carries `.type`/`.size`, or `addr2line`, `perf` and backtraces
    // charge its samples to whatever function the linker placed before it.
    core::arch::global_asm!(
        ".text",
        ".p2align 4",
        ".hidden tm_sim_fiber_switch",
        ".globl tm_sim_fiber_switch",
        ".type tm_sim_fiber_switch,@function",
        "tm_sim_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp + 4]",
        "fnstcw word ptr [rsp]",
        "mov qword ptr [rdi], rsp",
        "mov rsp, rsi",
        "fldcw word ptr [rsp]",
        "ldmxcsr dword ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size tm_sim_fiber_switch, . - tm_sim_fiber_switch",
        ".hidden tm_sim_fiber_boot",
        ".globl tm_sim_fiber_boot",
        ".type tm_sim_fiber_boot,@function",
        "tm_sim_fiber_boot:",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".size tm_sim_fiber_boot, . - tm_sim_fiber_boot",
    );

    extern "C" {
        fn tm_sim_fiber_switch(save: *mut *mut u8, to: *mut u8);
        fn tm_sim_fiber_boot();
    }

    /// Default x87 control word (0x037F) at offset 0 and default mxcsr
    /// (0x1F80) at offset 4, matching the frame layout the switch restores.
    const FPU_DEFAULTS: u64 = (0x1F80 << 32) | 0x037F;

    /// Suspend the current context into `*save` and resume `to`.
    ///
    /// # Safety
    /// `to` must be a stack pointer previously produced by this module
    /// (either `Stack::boot` or a prior switch out) and not resumed
    /// since; `save` must stay valid until this context is resumed through
    /// the pointer stored there. The resumed context — driver or fiber
    /// alike, and every context that runs before control returns here —
    /// mutates the scheduler state all of them reach through raw pointers,
    /// so *no* reference derived from those pointers may be live across
    /// the call: derive afresh after it returns.
    pub(crate) unsafe fn switch(save: *mut *mut u8, to: *mut u8) {
        tm_sim_fiber_switch(save, to);
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod imp {
    /// Stubs so `exec.rs` compiles on targets without the fiber backend;
    /// the executor never boots a stack there (`SUPPORTED` is false).
    pub(crate) struct Stack;

    impl Stack {
        pub(crate) unsafe fn boot(
            &self,
            _entry: unsafe extern "C" fn(*mut u8) -> !,
            _arg: *mut u8,
        ) -> *mut u8 {
            unreachable!("fiber backend is not supported on this target")
        }
    }

    #[derive(Default)]
    pub(crate) struct Stacks;

    impl Stacks {
        pub(crate) fn first(&mut self, _n: usize) -> &[Stack] {
            unreachable!("fiber backend is not supported on this target")
        }
    }

    pub(crate) unsafe fn switch(_save: *mut *mut u8, _to: *mut u8) {
        unreachable!("fiber backend is not supported on this target")
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use imp::{switch, Stacks};

#[cfg(test)]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;
    use std::ptr;

    // A fiber that counts and yields back, exercising spawn + repeated
    // round trips through the raw switch.
    struct Shuttle {
        driver_sp: *mut u8,
        fiber_sp: *mut u8,
        hits: u32,
    }

    unsafe extern "C" fn shuttle_entry(arg: *mut u8) -> ! {
        let s = arg as *mut Shuttle;
        for _ in 0..3 {
            (*s).hits += 1;
            switch(ptr::addr_of_mut!((*s).fiber_sp), (*s).driver_sp);
        }
        (*s).hits += 100;
        loop {
            switch(ptr::addr_of_mut!((*s).fiber_sp), (*s).driver_sp);
        }
    }

    /// What the driver plants before a switch and must read back after:
    /// rbx, rbp, r12–r15, the x87 control word (round toward zero) and
    /// mxcsr (round toward zero), in the order `tm_sim_fiber_test_probe`
    /// stores them.
    const PLANTED: [u64; 8] = [
        0x1111_2222_3333_4444,
        0x5555_6666_7777_8888,
        0x0c0c_1212_0c0c_1212,
        0x0d0d_1313_0d0d_1313,
        0x0e0e_1414_0e0e_1414,
        0x0f0f_1515_0f0f_1515,
        0x0f7f,
        0x7f80,
    ];

    // `tm_sim_fiber_test_probe(save, to, out)` keeps its caller's
    // callee-saved state, plants `PLANTED`, switches to `to`, and once
    // resumed stores what it finds into `out[0..8]`.
    // `tm_sim_fiber_test_scribble(save, to)` overwrites the same state
    // with other values and switches to `to`.
    core::arch::global_asm!(
        ".text",
        ".p2align 4",
        ".hidden tm_sim_fiber_test_probe",
        ".globl tm_sim_fiber_test_probe",
        ".type tm_sim_fiber_test_probe,@function",
        "tm_sim_fiber_test_probe:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp + 4]",
        "fnstcw word ptr [rsp]",
        "push rdx",
        "sub rsp, 8",
        "mov word ptr [rsp], {fcw}",
        "mov dword ptr [rsp + 4], {mxcsr}",
        "fldcw word ptr [rsp]",
        "ldmxcsr dword ptr [rsp + 4]",
        "movabs rbx, {rbx}",
        "movabs rbp, {rbp}",
        "movabs r12, {r12}",
        "movabs r13, {r13}",
        "movabs r14, {r14}",
        "movabs r15, {r15}",
        "call tm_sim_fiber_switch",
        "mov rax, qword ptr [rsp + 8]",
        "mov qword ptr [rax], rbx",
        "mov qword ptr [rax + 8], rbp",
        "mov qword ptr [rax + 16], r12",
        "mov qword ptr [rax + 24], r13",
        "mov qword ptr [rax + 32], r14",
        "mov qword ptr [rax + 40], r15",
        "mov qword ptr [rsp], 0",
        "fnstcw word ptr [rsp]",
        "stmxcsr dword ptr [rsp + 4]",
        "movzx ecx, word ptr [rsp]",
        "mov qword ptr [rax + 48], rcx",
        "mov ecx, dword ptr [rsp + 4]",
        "mov qword ptr [rax + 56], rcx",
        "add rsp, 16",
        "fldcw word ptr [rsp]",
        "ldmxcsr dword ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size tm_sim_fiber_test_probe, . - tm_sim_fiber_test_probe",
        ".p2align 4",
        ".hidden tm_sim_fiber_test_scribble",
        ".globl tm_sim_fiber_test_scribble",
        ".type tm_sim_fiber_test_scribble,@function",
        "tm_sim_fiber_test_scribble:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp + 4]",
        "fnstcw word ptr [rsp]",
        "sub rsp, 16",
        "mov word ptr [rsp], 0x027f",
        "mov dword ptr [rsp + 4], 0x5f80",
        "fldcw word ptr [rsp]",
        "ldmxcsr dword ptr [rsp + 4]",
        "movabs rbx, 0xbad0bad0bad0bad0",
        "mov rbp, rbx",
        "mov r12, rbx",
        "mov r13, rbx",
        "mov r14, rbx",
        "mov r15, rbx",
        "call tm_sim_fiber_switch",
        "add rsp, 16",
        "fldcw word ptr [rsp]",
        "ldmxcsr dword ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size tm_sim_fiber_test_scribble, . - tm_sim_fiber_test_scribble",
        rbx = const PLANTED[0],
        rbp = const PLANTED[1],
        r12 = const PLANTED[2],
        r13 = const PLANTED[3],
        r14 = const PLANTED[4],
        r15 = const PLANTED[5],
        fcw = const PLANTED[6],
        mxcsr = const PLANTED[7],
    );

    extern "C" {
        fn tm_sim_fiber_test_probe(save: *mut *mut u8, to: *mut u8, out: *mut u64);
        fn tm_sim_fiber_test_scribble(save: *mut *mut u8, to: *mut u8);
    }

    unsafe extern "C" fn scribbler_entry(arg: *mut u8) -> ! {
        let s = arg as *mut Shuttle;
        (*s).hits += 1;
        loop {
            tm_sim_fiber_test_scribble(ptr::addr_of_mut!((*s).fiber_sp), (*s).driver_sp);
        }
    }

    /// The switch saves and restores every piece of state the System V ABI
    /// makes callee-saved: a fiber that overwrites all of it hands the
    /// driver back exactly what the driver had.
    #[test]
    fn a_switch_keeps_the_callee_saved_state() {
        let mut s = Shuttle {
            driver_sp: ptr::null_mut(),
            fiber_sp: ptr::null_mut(),
            hits: 0,
        };
        let mut stacks = Stacks::default();
        let stack = &stacks.first(1)[0];
        s.fiber_sp = unsafe { stack.boot(scribbler_entry, &mut s as *mut Shuttle as *mut u8) };
        let mut seen = [0u64; 8];
        unsafe {
            let to = s.fiber_sp;
            tm_sim_fiber_test_probe(ptr::addr_of_mut!(s.driver_sp), to, seen.as_mut_ptr());
        }
        assert_eq!(s.hits, 1, "the fiber ran");
        assert_eq!(seen, PLANTED);
    }

    /// A symbolizer attributes an address to the nearest preceding symbol
    /// that covers it: unsized, the two assembly routines' samples land on
    /// whichever function the linker put before them.
    #[test]
    fn the_assembly_symbols_are_sized_functions() {
        let exe = std::env::current_exe().expect("the test binary's path");
        let nm = std::process::Command::new("nm").arg("-S").arg(exe).output();
        let Ok(nm) = nm.map(|out| String::from_utf8_lossy(&out.stdout).into_owned()) else {
            return; // No binutils on this host.
        };
        for symbol in ["tm_sim_fiber_switch", "tm_sim_fiber_boot"] {
            // "<address> <size> <type> <name>"; no size column without `.size`.
            let sized = nm.lines().filter(|l| l.ends_with(symbol)).any(|l| {
                let fields: Vec<&str> = l.split_whitespace().collect();
                matches!(fields[..], [_, size, "t" | "T", _] if size.chars().any(|c| c != '0'))
            });
            assert!(
                sized || nm.is_empty(),
                "{symbol} in the symbol table:\n{nm}"
            );
        }
    }

    #[test]
    fn spawn_switch_roundtrip() {
        let mut s = Shuttle {
            driver_sp: ptr::null_mut(),
            fiber_sp: ptr::null_mut(),
            hits: 0,
        };
        let mut stacks = Stacks::default();
        let stack = &stacks.first(1)[0];
        s.fiber_sp = unsafe { stack.boot(shuttle_entry, &mut s as *mut Shuttle as *mut u8) };
        for expect in [1u32, 2, 3, 103] {
            unsafe {
                let to = s.fiber_sp;
                switch(ptr::addr_of_mut!(s.driver_sp), to);
            }
            assert_eq!(s.hits, expect);
        }
    }
}
