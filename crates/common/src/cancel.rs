//! Cooperative cancellation for the query lifecycle.
//!
//! A [`CancelToken`] is the one-bit contract between whoever decides a
//! query must stop (a deadline monitor, `HdmServer::shutdown`, an
//! explicit kill) and every layer that does the work (the stage
//! scheduler, engine task supervisors, streamed intermediates, the MPI
//! simulator's receive loops). The contract is *cooperative*: firing the
//! token never interrupts anything — each layer polls at its own safe
//! points and unwinds by returning [`HdmError::Cancelled`]. A layer that
//! parks a thread (an MPI rank blocked in `recv`) registers a waker with
//! [`CancelToken::on_cancel`] so the fire reaches it without the thread
//! having to wake up and look.
//!
//! Polling is poll-cheap by construction: [`CancelToken::is_cancelled`]
//! is a single relaxed atomic load, the same discipline as
//! `hdm-faults`' disabled path, so un-cancelled hot loops pay nothing
//! measurable. The reason string and fire timestamp live behind a mutex
//! that is only touched when the token actually fires.

use crate::error::{HdmError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

type Waker = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct Detail {
    /// Why and when the token fired; written once.
    fired: Option<(String, Instant)>,
    /// Callbacks to run when the token fires, keyed for deregistration.
    wakers: Vec<(u64, Waker)>,
    next_waker: u64,
}

#[derive(Default)]
struct TokenState {
    fired: AtomicBool,
    /// Only touched when the token fires or a waker (de)registers.
    detail: Mutex<Detail>,
}

impl TokenState {
    fn detail(&self) -> MutexGuard<'_, Detail> {
        self.detail
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A cheaply clonable cooperative cancellation flag.
///
/// The default token is *never fired* and can be polled forever for the
/// cost of one relaxed load — code paths that do not participate in
/// cancellation just thread the default through.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenState>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("fired", &self.is_cancelled())
            .finish()
    }
}

/// Registration of a waker on a [`CancelToken`]; dropping it removes the
/// waker, so a short-lived waiter (one MPI world of one stage) never
/// outlives itself on a query-lifetime token.
#[must_use = "dropping the registration removes the waker"]
pub struct WakerRegistration {
    token: CancelToken,
    id: u64,
}

impl std::fmt::Debug for WakerRegistration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakerRegistration")
            .field("id", &self.id)
            .finish()
    }
}

impl Drop for WakerRegistration {
    fn drop(&mut self) {
        self.token
            .inner
            .detail()
            .wakers
            .retain(|(id, _)| *id != self.id);
    }
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Has the token fired? One relaxed atomic load — safe to call on
    /// per-record hot paths.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.fired.load(Ordering::Relaxed)
    }

    /// Fire the token. The first call's reason and timestamp win;
    /// repeats are no-ops (idempotent, so a deadline monitor and a
    /// shutdown sweep can race benignly).
    pub fn cancel(&self, reason: &str) {
        let mut detail = self.inner.detail();
        if detail.fired.is_some() {
            return;
        }
        detail.fired = Some((reason.to_string(), Instant::now()));
        // Store after the detail write so a poller that sees the flag
        // finds the reason populated.
        self.inner.fired.store(true, Ordering::Release);
        let wakers = std::mem::take(&mut detail.wakers);
        // Wakers run outside the lock: they may touch channels or
        // condvars whose owners are themselves polling this token.
        drop(detail);
        for (_, wake) in wakers {
            wake();
        }
    }

    /// Run `wake` once when the token fires — the hook that lets a layer
    /// *block* for cancellation instead of polling for it (the waker
    /// typically posts a message or notifies a condvar the waiter is
    /// parked on). A token that already fired runs `wake` right away.
    /// The waker stays registered until it ran or the returned
    /// registration is dropped.
    pub fn on_cancel(&self, wake: impl FnOnce() + Send + 'static) -> WakerRegistration {
        let mut detail = self.inner.detail();
        let id = detail.next_waker;
        detail.next_waker += 1;
        if detail.fired.is_some() {
            drop(detail);
            wake();
        } else {
            detail.wakers.push((id, Box::new(wake)));
        }
        WakerRegistration {
            token: self.clone(),
            id,
        }
    }

    /// The reason the token fired, or a generic fallback. Only
    /// meaningful once [`Self::is_cancelled`] returns true.
    pub fn reason(&self) -> String {
        self.inner
            .detail()
            .fired
            .as_ref()
            .map(|(r, _)| r.clone())
            .unwrap_or_else(|| "cancelled".to_string())
    }

    /// Milliseconds elapsed since the token fired — the cancel latency
    /// when sampled at the moment a cancelled query unwinds. `None`
    /// until the token fires.
    pub fn fired_elapsed_ms(&self) -> Option<u64> {
        self.inner
            .detail()
            .fired
            .as_ref()
            .map(|(_, at)| at.elapsed().as_millis() as u64)
    }

    /// The [`HdmError::Cancelled`] this token unwinds with.
    pub fn as_error(&self) -> HdmError {
        HdmError::Cancelled(self.reason())
    }

    /// `Err(Cancelled)` if fired, `Ok(())` otherwise — the one-liner for
    /// safe-point checks: `token.bail_if_cancelled()?;`.
    #[inline]
    pub fn bail_if_cancelled(&self) -> Result<()> {
        if self.is_cancelled() {
            return Err(self.as_error());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_fires() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.bail_if_cancelled().is_ok());
        assert!(t.fired_elapsed_ms().is_none());
    }

    #[test]
    fn first_cancel_reason_wins_and_is_visible_to_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel("deadline exceeded");
        t.cancel("second reason loses");
        assert!(c.is_cancelled());
        assert_eq!(c.reason(), "deadline exceeded");
        let err = c.bail_if_cancelled().unwrap_err();
        assert_eq!(err.subsystem(), "cancelled");
        assert!(err.message().contains("deadline exceeded"));
        assert!(c.fired_elapsed_ms().is_some());
    }

    #[test]
    fn wakers_run_once_on_fire_and_not_after_deregistration() {
        use std::sync::atomic::AtomicUsize;
        let t = CancelToken::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let count = |hits: &Arc<AtomicUsize>| {
            let hits = Arc::clone(hits);
            move || {
                hits.fetch_add(1, Ordering::SeqCst);
            }
        };
        let kept = t.on_cancel(count(&hits));
        drop(t.on_cancel(count(&hits))); // deregistered before the fire
        t.cancel("stop");
        t.cancel("again");
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // Registering on a fired token wakes at once.
        let late = t.on_cancel(count(&hits));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        drop((kept, late));
    }
}
