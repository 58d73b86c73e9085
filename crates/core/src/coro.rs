//! Stackful userland contexts: where a task body's registers live.
//!
//! The paper schedules its per-core threads in userland (§III); this is
//! that mechanism. A [`Context`] is an `mmap`ed stack plus two saved stack
//! pointers. A *driver* — whoever holds the body's grant; in the engine,
//! the pick loop on the thread that called `simulate` — runs a task body
//! *on* a context ([`Context::start`]), the body gives the CPU back in the middle
//! of a call chain ([`Context::suspend`]) and a driver later continues it
//! exactly there ([`Context::resume`]) — each a [`arch::switch`]: push the
//! callee-saved registers, exchange the stack pointer, pop, return. No
//! system call, nothing the host scheduler sees.
//!
//! Three properties the engine relies on:
//!
//! * **Nothing unwinds across a switch.** The body runs under
//!   `catch_unwind` in [`trampoline`], the outermost frame of its stack; a
//!   panic is handed to the driver as a value ([`Outcome::Panicked`]). A
//!   context's stack is a separate unwinding universe that ends there.
//! * **One resumer at a time, on any thread.** A suspended body is plain
//!   memory — a stack and a saved stack pointer — so the thread that
//!   resumes it need not be the one it suspended on. What must hold is
//!   that exactly one party drives a context at any instant and that each
//!   hand-over is a happens-before edge (a mutex, a channel, a thread
//!   join). The engine drives every context from one thread, but nothing
//!   here depends on that, so everything on a body's path to
//!   [`Context::suspend`] keeps one rule: hold no thread-local (a
//!   reference into one, or a guard tied to the thread) across it.
//! * **A context never outlives its pool.** [`Pool`] owns every stack and
//!   unmaps them when dropped; freed contexts are reused most recently
//!   freed first, so a run of run-to-completion tasks touches one stack.
//!
//! Only the callee-saved integer registers (and on aarch64 `d8`–`d15`) are
//! exchanged: a switch is an ordinary function call to the compiler, which
//! spills everything else around it. The floating-point control words are
//! not exchanged either — they are thread state here, as they are across
//! any call.
//!
//! Porting: the two functions of [`arch`] are the whole target-specific
//! surface; an unsupported target is a compile error, not a fallback.

use std::any::Any;
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "simany-core runs task bodies on hand-written userland contexts: port \
     `coro::arch::switch` and `coro::arch::start` (crates/core/src/coro.rs) to this target"
);

/// First frame of every context: receives the `arg` given to
/// [`arch::start`] and never returns.
type Entry = unsafe extern "C" fn(*mut u8) -> !;

#[cfg(all(unix, target_arch = "x86_64"))]
mod arch {
    use super::Entry;
    use std::arch::naked_asm;

    /// Save the callee-saved registers of the running side on its stack,
    /// store its stack pointer in `*save`, and continue the side whose
    /// stack pointer is `to` by popping the same frame there.
    ///
    /// # Safety
    /// `to` must be a stack pointer stored by an earlier `switch` or
    /// [`start`] — on this thread, or on another whose store
    /// happens-before this call — whose stack is still mapped and has not
    /// been continued since; `save` must be valid for a write.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
        // System V: rdi = save, rsi = to. Six pushes keep the saved frame's
        // layout identical on both sides; `ret` pops the return address the
        // other side's `call switch` (or `call start`) pushed.
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// Save the running side exactly like [`switch`], then call
    /// `entry(arg)` on the empty stack whose highest address is `top`.
    /// Returns when the new side first switches back to `*save`.
    ///
    /// # Safety
    /// `top` must be the 16-byte-aligned upper end of a mapped, writable
    /// stack nothing else is using; `entry` must never return.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn start(
        save: *mut *mut u8,
        top: *mut u8,
        arg: *mut u8,
        entry: Entry,
    ) {
        // rdi = save, rsi = top, rdx = arg, rcx = entry. `top` is 16-byte
        // aligned and `call` pushes 8, which is the alignment the ABI
        // promises a function at entry. rbp = 0 ends frame-pointer walks.
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "mov rdi, rdx",
            "xor ebp, ebp",
            "call rcx",
            "ud2",
        )
    }
}

#[cfg(all(unix, target_arch = "aarch64"))]
mod arch {
    use super::Entry;
    use std::arch::naked_asm;

    /// Save the callee-saved registers of the running side on its stack,
    /// store its stack pointer in `*save`, and continue the side whose
    /// stack pointer is `to` by reloading the same frame there.
    ///
    /// # Safety
    /// `to` must be a stack pointer stored by an earlier `switch` or
    /// [`start`] — on this thread, or on another whose store
    /// happens-before this call — whose stack is still mapped and has not
    /// been continued since; `save` must be valid for a write.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
        // AAPCS64: x0 = save, x1 = to. Callee-saved: x19-x28, fp (x29),
        // lr (x30) and the low halves of v8-v15. `ret` jumps to the
        // reloaded lr: the instruction after the other side's `bl switch`.
        naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp, #0]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x9, sp",
            "str x9, [x0]",
            "mov sp, x1",
            "ldp x19, x20, [sp, #0]",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "add sp, sp, #160",
            "ret",
        )
    }

    /// Save the running side exactly like [`switch`], then call
    /// `entry(arg)` on the empty stack whose highest address is `top`.
    /// Returns when the new side first switches back to `*save`.
    ///
    /// # Safety
    /// `top` must be the 16-byte-aligned upper end of a mapped, writable
    /// stack nothing else is using; `entry` must never return.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn start(
        save: *mut *mut u8,
        top: *mut u8,
        arg: *mut u8,
        entry: Entry,
    ) {
        // x0 = save, x1 = top, x2 = arg, x3 = entry. fp = lr = 0 ends
        // frame-pointer walks at `entry`.
        naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp, #0]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x9, sp",
            "str x9, [x0]",
            "mov sp, x1",
            "mov x0, x2",
            "mov x29, xzr",
            "mov x30, xzr",
            "blr x3",
            "brk #1",
        )
    }
}

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn getpagesize() -> c_int;
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 2;
/// The one flag value that differs among the supported hosts: Linux
/// (x86_64, aarch64) against the BSD family and macOS.
const MAP_ANONYMOUS: c_int = if cfg!(target_os = "linux") {
    0x20
} else {
    0x1000
};
const ENOMEM: i32 = 12;

fn last_errno() -> i32 {
    std::io::Error::last_os_error()
        .raw_os_error()
        .unwrap_or(ENOMEM)
}

/// One mapped stack: a `PROT_NONE` guard page at the low end (stacks grow
/// down, so an overflow faults instead of scribbling over a neighbor) and
/// at least the requested bytes above it. Pages are touched — and so count
/// as resident — only as deep as a body actually reaches.
struct Stack {
    base: *mut u8,
    /// Guard page included.
    len: usize,
}

impl Stack {
    /// Map a stack of at least `bytes` usable bytes; `Err(errno)` if the
    /// host refuses.
    fn map(bytes: usize) -> Result<Stack, i32> {
        // SAFETY: no preconditions; it reads a constant of the host.
        let page = unsafe { getpagesize() } as usize;
        let len = bytes
            .max(page)
            .checked_next_multiple_of(page)
            .and_then(|usable| usable.checked_add(page))
            .filter(|&len| len <= isize::MAX as usize)
            .ok_or(ENOMEM)?;
        // SAFETY: a fresh anonymous private mapping at an address of the
        // kernel's choosing aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(last_errno());
        }
        let stack = Stack {
            base: base.cast(),
            len,
        };
        // SAFETY: the first page of the mapping just created; nothing has
        // been stored there yet.
        if unsafe { mprotect(base, page, PROT_NONE) } != 0 {
            return Err(last_errno()); // `stack` unmaps on drop
        }
        Ok(stack)
    }

    /// One past the highest usable byte: page-aligned, hence 16-aligned.
    fn top(&self) -> *mut u8 {
        // SAFETY: `base..base + len` is one mapping; one-past-the-end is
        // in bounds for pointer arithmetic.
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the range `map` mapped; `Context` keeps the
        // stack private, so nothing else can still point into it except a
        // body suspended on it, which can no longer be continued once the
        // context is gone. A failure leaves the pages mapped: a leak, and
        // nothing to do about it here.
        unsafe { munmap(self.base.cast(), self.len) };
    }
}

/// How a [`Context::start`] or [`Context::resume`] came back.
pub(crate) enum Outcome {
    /// The body called [`Context::suspend`]; it can be resumed.
    Suspended,
    /// The body returned; the context is free for another body.
    Returned,
    /// The body panicked with this payload; the context is free.
    Panicked(Box<dyn Any + Send>),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// No body: `start` is the only legal call.
    Idle,
    /// A body is executing on this stack right now.
    Running,
    /// A body is parked in `suspend`: `resume` is the only legal call.
    Suspended,
}

/// A stack and the saved stack pointer of whichever of its two sides — the
/// body, or the driver that started or resumed it — is not running.
///
/// All fields are private and `Cell`s: both sides reach the context
/// through `&Context`, so no `&mut` ever has to span a switch. The raw
/// pointers and the cells make it neither `Send` nor `Sync`: a driver on
/// another thread gets at it through a raw pointer, on the strength of the
/// hand-over rule in the module docs.
pub(crate) struct Context {
    stack: Stack,
    /// Valid while `Suspended`.
    body_sp: Cell<*mut u8>,
    /// Valid while `Running`.
    driver_sp: Cell<*mut u8>,
    state: Cell<State>,
    /// How the last body ended; set by the trampoline just before its
    /// final switch, taken by the driver right after.
    ended: Cell<Option<std::thread::Result<()>>>,
}

/// What [`Context::start`] hands its trampoline: lives in `start`'s frame,
/// which stays put until the new side first switches back.
struct Launch<F> {
    ctx: *const Context,
    body: Option<F>,
}

/// The outermost frame of a context's stack: run the body, catch whatever
/// it throws, report, and leave for good.
unsafe extern "C" fn trampoline<F: FnOnce(&Context)>(arg: *mut u8) -> ! {
    // SAFETY: `arg` is the `Launch<F>` in the frame of the `Context::start`
    // call that is blocked in `arch::start` until this side first switches
    // away; the body is moved onto this stack before that can happen. The
    // context itself outlives its stack's use (it owns the stack).
    let (ctx, body) = unsafe {
        let launch = &mut *arg.cast::<Launch<F>>();
        (
            &*launch.ctx,
            launch.body.take().expect("context launched twice"),
        )
    };
    let ended = catch_unwind(AssertUnwindSafe(|| body(ctx)));
    ctx.ended.set(Some(ended));
    ctx.state.set(State::Idle);
    // SAFETY: `driver_sp` was stored by the `start`/`resume` that made this
    // side run and that driver has been blocked in it since. Every local
    // of this frame is dead; the saved body side is never continued.
    unsafe { arch::switch(ctx.body_sp.as_ptr(), ctx.driver_sp.get()) };
    // An `Idle` context is only ever `start`ed afresh from the top.
    std::process::abort()
}

impl Context {
    fn new(stack_bytes: usize) -> Result<Context, i32> {
        Ok(Context {
            stack: Stack::map(stack_bytes)?,
            body_sp: Cell::new(std::ptr::null_mut()),
            driver_sp: Cell::new(std::ptr::null_mut()),
            state: Cell::new(State::Idle),
            ended: Cell::new(None),
        })
    }

    /// Run `body` on this (idle) context's stack until it first suspends,
    /// returns or panics. The body receives the context so it can
    /// [`suspend`](Self::suspend). `'static`: a suspended body may outlive
    /// any borrow of the caller's frame.
    pub(crate) fn start<F: FnOnce(&Context) + 'static>(&self, body: F) -> Outcome {
        assert_eq!(self.state.get(), State::Idle, "context already has a body");
        let mut launch = Launch {
            ctx: self,
            body: Some(body),
        };
        self.state.set(State::Running);
        // SAFETY: the stack is mapped, private to this context and — the
        // context being idle — empty; its top is page-aligned. The
        // trampoline never returns. `launch` outlives the call.
        unsafe {
            arch::start(
                self.driver_sp.as_ptr(),
                self.stack.top(),
                (&raw mut launch).cast(),
                trampoline::<F>,
            );
        }
        self.came_back()
    }

    /// Continue the suspended body until it suspends again, returns or
    /// panics.
    pub(crate) fn resume(&self) -> Outcome {
        assert_eq!(
            self.state.get(),
            State::Suspended,
            "no suspended body to resume"
        );
        self.state.set(State::Running);
        // SAFETY: `Suspended` means `body_sp` was stored by the body's
        // `suspend` and nothing has continued it since; if that was on
        // another thread, the hand-over that made the caller this
        // context's one driver ordered the store before this load (module
        // docs). The stack is still mapped.
        unsafe { arch::switch(self.driver_sp.as_ptr(), self.body_sp.get()) };
        self.came_back()
    }

    fn came_back(&self) -> Outcome {
        match self.ended.take() {
            None => Outcome::Suspended,
            Some(Ok(())) => Outcome::Returned,
            Some(Err(payload)) => Outcome::Panicked(payload),
        }
    }

    /// Give the CPU back to the driver: its `start`/`resume` returns
    /// [`Outcome::Suspended`]. Returns when the driver resumes this body.
    ///
    /// # Safety
    /// Must be called by the body currently running on *this* context —
    /// the reference its closure was given — and from nowhere else.
    pub(crate) unsafe fn suspend(&self) {
        debug_assert_eq!(self.state.get(), State::Running);
        self.state.set(State::Suspended);
        // SAFETY: the caller runs on this context, so the driver is
        // blocked in the `start`/`resume` that stored `driver_sp`.
        unsafe { arch::switch(self.body_sp.as_ptr(), self.driver_sp.get()) };
    }

    /// Whether a body is parked in [`Self::suspend`].
    pub(crate) fn is_suspended(&self) -> bool {
        self.state.get() == State::Suspended
    }
}

/// Every context of one run. Slots are stable indices (the engine stores
/// them in `Activity::context`); a released slot keeps its stack mapped and
/// is the next one acquired, so the number of slots is the high-water mark
/// of bodies alive at once.
pub(crate) struct Pool {
    stack_bytes: usize,
    /// Owned, from `Box::into_raw`: a suspended body holds `&Context`
    /// across growth of this vector, which a `Box` in here would claim to
    /// own uniquely each time it moved.
    slots: Vec<*mut Context>,
    /// Idle slots, most recently released last.
    free: Vec<usize>,
}

impl Pool {
    pub(crate) fn new(stack_bytes: usize) -> Pool {
        Pool {
            stack_bytes,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The most recently released slot, or a new one on a freshly mapped
    /// stack; `Err(errno)` if the host refuses the mapping.
    pub(crate) fn acquire(&mut self) -> Result<usize, i32> {
        if let Some(slot) = self.free.pop() {
            return Ok(slot);
        }
        let ctx = Box::new(Context::new(self.stack_bytes)?);
        self.slots.push(Box::into_raw(ctx));
        Ok(self.slots.len() - 1)
    }

    /// Hand back a slot whose body has ended.
    pub(crate) fn release(&mut self, slot: usize) {
        debug_assert_eq!(self.get(slot).state.get(), State::Idle);
        self.free.push(slot);
    }

    pub(crate) fn get(&self, slot: usize) -> &Context {
        // SAFETY: every entry came from `Box::into_raw` and is freed only
        // in `drop`; contexts are mutated through their cells alone.
        unsafe { &*self.slots[slot] }
    }

    /// Stacks ever mapped: the high-water mark of simultaneously live
    /// bodies.
    pub(crate) fn peak(&self) -> usize {
        self.slots.len()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for &ctx in &self.slots {
            // SAFETY: from `Box::into_raw` in `acquire`, freed once, here.
            // A body still suspended on it is abandoned with its stack: its
            // locals leak, which is safe, and nothing can resume it since
            // the only way to a context is through this pool.
            drop(unsafe { Box::from_raw(ctx) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    const STACK: usize = 256 << 10;

    /// One round of mixing over six live values: enough of them that an
    /// optimized build keeps some in callee-saved registers across the
    /// switch that follows.
    #[inline(always)]
    fn churn(v: &mut [u64; 6], seed: u64) {
        let mut carry = seed;
        for x in v {
            *x = x.rotate_left(7) ^ carry.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            carry = *x;
        }
    }

    /// 10^6 round trips; both sides carry live locals across every switch
    /// and fold them into a checksum, so a register the switch fails to
    /// preserve — which registers the compiler picks differs between debug
    /// and release — shows up as a wrong sum on one side or the other.
    #[test]
    fn a_million_round_trips_preserve_locals_on_both_sides() {
        const N: u64 = 1_000_000;
        const BODY: [u64; 6] = [21, 34, 55, 89, 144, 233];
        const DRIVER: [u64; 6] = [1, 2, 3, 5, 8, 13];
        let mut pool = Pool::new(STACK);
        let slot = pool.acquire().unwrap();
        let ctx = pool.get(slot);
        let from_body = Rc::new(Cell::new(BODY));
        let out = from_body.clone();
        let first = ctx.start(move |me| {
            let mut v = BODY;
            for i in 0..N {
                churn(&mut v, i);
                // SAFETY: this closure is the body running on `me`.
                unsafe { me.suspend() };
            }
            out.set(v);
        });
        assert!(matches!(first, Outcome::Suspended));
        let mut w = DRIVER;
        let mut resumes = 0;
        loop {
            churn(&mut w, resumes);
            resumes += 1;
            match ctx.resume() {
                Outcome::Suspended => {}
                Outcome::Returned => break,
                Outcome::Panicked(_) => panic!("body panicked"),
            }
        }
        assert_eq!(resumes, N);

        // The same arithmetic with no switch anywhere.
        let (mut v, mut w2) = (BODY, DRIVER);
        for i in 0..N {
            churn(&mut v, i);
            churn(&mut w2, i);
        }
        assert_eq!(from_body.get(), v, "body side");
        assert_eq!(w, w2, "driver side");
    }

    #[test]
    fn a_panicking_body_is_caught_at_the_trampoline() {
        let mut pool = Pool::new(STACK);
        let slot = pool.acquire().unwrap();
        let dropped = Rc::new(Cell::new(false));
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let guard = SetOnDrop(dropped.clone());
        let out = pool.get(slot).start(move |me| {
            let _guard = guard;
            // SAFETY: this closure is the body running on `me`.
            unsafe { me.suspend() };
            std::panic::panic_any(4242u32);
        });
        assert!(matches!(out, Outcome::Suspended));
        assert!(!dropped.get());
        let Outcome::Panicked(payload) = pool.get(slot).resume() else {
            panic!("expected the panic to come back as a value");
        };
        assert_eq!(payload.downcast_ref::<u32>(), Some(&4242));
        assert!(dropped.get(), "the body's locals unwound on its own stack");
        // The context is idle again and takes a new body.
        pool.release(slot);
        let again = pool.acquire().unwrap();
        assert_eq!(again, slot);
        assert!(matches!(pool.get(again).start(|_| {}), Outcome::Returned));
    }

    /// `f64` accumulators live across switches on both sides, and an
    /// over-aligned local proves the stack pointer the body runs on keeps
    /// the ABI's 16-byte alignment (an SSE spill to a misaligned slot
    /// would fault).
    #[test]
    fn float_state_and_stack_alignment_survive_a_switch() {
        #[repr(align(16))]
        struct Aligned([f64; 2]);
        let mut pool = Pool::new(STACK);
        let slot = pool.acquire().unwrap();
        let ctx = pool.get(slot);
        let result = Rc::new(Cell::new((0.0f64, 0usize)));
        let out = result.clone();
        let started = ctx.start(move |me| {
            let mut acc = Aligned([0.0, 1.0]);
            let addr = std::ptr::from_ref(&acc) as usize;
            for i in 0..1000 {
                acc.0[0] += std::hint::black_box(0.5) * f64::from(i);
                acc.0[1] *= std::hint::black_box(1.0009765625);
                // SAFETY: this closure is the body running on `me`.
                unsafe { me.suspend() };
            }
            out.set((acc.0[0] + acc.0[1], addr));
        });
        assert!(matches!(started, Outcome::Suspended));
        let mut mine = 0.0f64;
        let mut k = 0;
        while let Outcome::Suspended = ctx.resume() {
            mine += std::hint::black_box(0.25) * f64::from(k);
            k += 1;
        }
        let (mut s, mut p) = (0.0f64, 1.0f64);
        for i in 0..1000 {
            s += 0.5 * f64::from(i);
            p *= 1.0009765625;
        }
        let (sum, addr) = result.get();
        assert_eq!(sum, s + p);
        assert_eq!(addr % 16, 0, "over-aligned local at {addr:#x}");
        assert_eq!(mine, (0..999).map(|k| 0.25 * f64::from(k)).sum::<f64>());
    }

    /// Carries a pool from the thread that started a body to the one that
    /// continues it.
    struct Handoff(Pool);
    // SAFETY: the tests below move it through `JoinHandle::join` and
    // `thread::spawn`, each a happens-before edge, and the sending thread
    // is gone by then — one driver at a time, which is the module's rule.
    unsafe impl Send for Handoff {}
    impl Handoff {
        /// (A method, so that a closure captures the whole `Handoff`.)
        fn into_pool(self) -> Pool {
            self.0
        }
    }

    /// Start a body on a thread of its own and return it suspended, with
    /// that thread's id.
    fn started_elsewhere(
        body: impl FnOnce(&Context) + Send + 'static,
    ) -> (Handoff, std::thread::ThreadId) {
        std::thread::spawn(move || {
            let mut pool = Pool::new(STACK);
            let slot = pool.acquire().unwrap();
            assert!(matches!(pool.get(slot).start(body), Outcome::Suspended));
            (Handoff(pool), std::thread::current().id())
        })
        .join()
        .unwrap()
    }

    /// A body started on thread A and suspended there runs to completion
    /// on thread B: its locals — some in callee-saved registers in an
    /// optimized build — survive, and what it asks the thread about after
    /// the switch is answered by B.
    #[test]
    fn a_suspended_body_resumes_on_another_thread() {
        use std::sync::Mutex;
        const SEED: [u64; 6] = [3, 1, 4, 1, 5, 9];
        let seen = std::sync::Arc::new(Mutex::new(None));
        let out = seen.clone();
        let (handoff, thread_a) = started_elsewhere(move |me| {
            let before = std::thread::current().id();
            let mut v = SEED;
            churn(&mut v, 1);
            // SAFETY: this closure is the body running on `me`.
            unsafe { me.suspend() };
            churn(&mut v, 2);
            *out.lock().unwrap() = Some((before, std::thread::current().id(), v));
        });
        let thread_b = std::thread::spawn(move || {
            let pool = handoff.into_pool();
            assert!(matches!(pool.get(0).resume(), Outcome::Returned));
            std::thread::current().id()
        })
        .join()
        .unwrap();
        let mut v = SEED;
        churn(&mut v, 1);
        churn(&mut v, 2);
        assert_ne!(thread_a, thread_b);
        assert_eq!(*seen.lock().unwrap(), Some((thread_a, thread_b, v)));
    }

    /// A panic raised after such a migration unwinds the body's stack on
    /// the resuming thread and still ends at the trampoline.
    #[test]
    fn a_panic_after_migration_is_caught_at_the_trampoline() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct SetOnDrop(std::sync::Arc<AtomicBool>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = std::sync::Arc::new(AtomicBool::new(false));
        let guard = SetOnDrop(dropped.clone());
        let (handoff, _) = started_elsewhere(move |me| {
            let _guard = guard;
            // SAFETY: this closure is the body running on `me`.
            unsafe { me.suspend() };
            std::panic::panic_any(4242u32);
        });
        assert!(!dropped.load(Ordering::SeqCst));
        let payload = std::thread::spawn(move || {
            let pool = handoff.into_pool();
            let Outcome::Panicked(payload) = pool.get(0).resume() else {
                panic!("expected the panic to come back as a value");
            };
            // The resuming thread is not left "panicking" by it.
            assert!(!std::thread::panicking());
            payload
        })
        .join()
        .unwrap();
        assert_eq!(payload.downcast_ref::<u32>(), Some(&4242));
        assert!(dropped.load(Ordering::SeqCst));
    }

    #[test]
    fn the_pool_reuses_the_most_recently_freed_stack() {
        let mut pool = Pool::new(STACK);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        let c = pool.acquire().unwrap();
        assert_eq!((a, b, c, pool.peak()), (0, 1, 2, 3));
        pool.release(a);
        pool.release(c);
        assert_eq!(pool.acquire().unwrap(), c, "last freed, first reused");
        assert_eq!(pool.acquire().unwrap(), a);
        assert_eq!(pool.peak(), 3, "no new stack while a freed one is idle");
        assert_eq!(pool.acquire().unwrap(), 3);
        assert_eq!(pool.peak(), 4);
    }

    #[test]
    fn the_guard_page_is_mapped_prot_none() {
        let stack = Stack::map(STACK).unwrap();
        // SAFETY: reads a constant of the host.
        let page = unsafe { getpagesize() } as usize;
        let guard = format!(
            "{:x}-{:x} ",
            stack.base as usize,
            stack.base as usize + page
        );
        let Ok(maps) = std::fs::read_to_string("/proc/self/maps") else {
            return; // no procfs on this host: nothing to read the answer from
        };
        let line = maps
            .lines()
            .find(|l| l.starts_with(&guard))
            .unwrap_or_else(|| panic!("no mapping {guard}in:\n{maps}"));
        assert!(line[guard.len()..].starts_with("---p"), "{line}");
        assert!(stack.len >= STACK + page);
    }

    #[test]
    fn an_absurd_stack_size_is_an_errno_not_a_panic() {
        // Larger than any address space (refused by `mmap`), and too large
        // to round up to pages at all (refused before the call).
        assert_eq!(Stack::map(1 << 60).err(), Some(ENOMEM));
        assert_eq!(Stack::map(usize::MAX).err(), Some(ENOMEM));
        let mut pool = Pool::new(1 << 60);
        assert_eq!(pool.acquire().err(), Some(ENOMEM));
        assert_eq!(pool.peak(), 0);
    }
}
