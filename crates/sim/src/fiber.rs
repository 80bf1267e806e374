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
pub(crate) use imp::{switch, Fiber};

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
    /// the lowest page — the stack grows down into the guard.
    struct Stack {
        base: *mut u8,
        len: usize,
    }

    // A fiber stack costs an mmap + mprotect to create, an munmap to
    // destroy, and — the dominant, hidden cost — a fresh round of page
    // faults to fault its hot pages back in on every reuse. `Sim::run`
    // spawns fibers per *run*, and the checkpointed schedule explorer
    // performs tens of thousands of runs per second, so stacks are pooled
    // process-wide: a retired stack keeps its mapping (guard page intact)
    // and the next spawn picks it up with its pages still resident.
    // Stale stack *contents* are harmless — `Fiber::spawn` builds the
    // boot frame from scratch.
    static STACK_POOL: std::sync::Mutex<Vec<Stack>> = std::sync::Mutex::new(Vec::new());
    /// Mapped-but-idle stacks kept at most; beyond this, retirement
    /// unmaps. 64 × ~2 MiB bounds the idle pool at ~128 MiB of mostly
    /// untouched (hence unbacked) address space.
    const POOL_MAX: usize = 64;

    // Raw pointers make Stack !Send by default; the region is exclusively
    // owned (mmap'd by us, handed over whole), so moving it across
    // threads through the pool is sound.
    unsafe impl Send for Stack {}

    impl Stack {
        fn new() -> Stack {
            if let Some(s) = STACK_POOL.lock().unwrap().pop() {
                return s;
            }
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

        fn unmap(&mut self) {
            unsafe {
                syscall6(11, self.base as usize, self.len, 0, 0, 0, 0);
            }
            self.base = core::ptr::null_mut();
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            if self.base.is_null() {
                return;
            }
            let mut pool = STACK_POOL.lock().unwrap();
            if pool.len() < POOL_MAX {
                pool.push(Stack {
                    base: self.base,
                    len: self.len,
                });
                self.base = core::ptr::null_mut();
            } else {
                drop(pool);
                self.unmap();
            }
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

    /// A suspended logical thread: its stack and saved stack pointer.
    pub(crate) struct Fiber {
        sp: *mut u8,
        _stack: Stack,
    }

    impl Fiber {
        /// Create a fiber that, when first switched to, calls
        /// `entry(arg)`. `entry` must never return (it must switch away
        /// forever once finished).
        pub(crate) fn spawn(entry: unsafe extern "C" fn(*mut u8) -> !, arg: *mut u8) -> Fiber {
            let stack = Stack::new();
            unsafe {
                // Frame layout (from the saved stack pointer, upward):
                //   +0  fcw/mxcsr   +8 r15   +16 r14   +24 r13 (entry)
                //   +32 r12 (arg)   +40 rbx  +48 rbp   +56 ret (boot shim)
                //   +64.. padding to the 16-aligned stack top.
                // The boot shim is entered with rsp ≡ 0 (mod 16), so its
                // `call` leaves the stack ABI-aligned for `entry`.
                let sp = stack.top().sub(80) as *mut u64;
                sp.write_bytes(0, 10);
                *sp = FPU_DEFAULTS;
                *sp.add(3) = entry as *const () as u64;
                *sp.add(4) = arg as u64;
                *sp.add(7) = tm_sim_fiber_boot as *const () as u64;
                Fiber {
                    sp: sp as *mut u8,
                    _stack: stack,
                }
            }
        }

        /// Saved stack pointer of this (suspended) fiber.
        pub(crate) fn sp(&self) -> *mut u8 {
            self.sp
        }
    }

    /// Suspend the current context into `*save` and resume `to`.
    ///
    /// # Safety
    /// `to` must be a stack pointer previously produced by this module
    /// (either `Fiber::spawn` or a prior switch out) and not resumed
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
    /// Stub so `exec.rs` compiles on targets without the fiber backend; the
    /// executor never constructs it there (`SUPPORTED` is false).
    pub(crate) struct Fiber;

    impl Fiber {
        pub(crate) fn spawn(_entry: unsafe extern "C" fn(*mut u8) -> !, _arg: *mut u8) -> Fiber {
            unreachable!("fiber backend is not supported on this target")
        }

        pub(crate) fn sp(&self) -> *mut u8 {
            unreachable!("fiber backend is not supported on this target")
        }
    }

    pub(crate) unsafe fn switch(_save: *mut *mut u8, _to: *mut u8) {
        unreachable!("fiber backend is not supported on this target")
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use imp::{switch, Fiber};

#[cfg(all(target_arch = "x86_64", target_os = "linux", test))]
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
        let fiber = Fiber::spawn(shuttle_entry, &mut s as *mut Shuttle as *mut u8);
        s.fiber_sp = fiber.sp();
        for expect in [1u32, 2, 3, 103] {
            unsafe {
                let to = s.fiber_sp;
                switch(ptr::addr_of_mut!(s.driver_sp), to);
            }
            assert_eq!(s.hits, expect);
        }
    }
}
