//! What the load generator sends, and what it keeps of the answers.

use std::sync::Arc;

use crate::gen::{Session, Template};
use crate::load::{classify, Answer};

/// A serve workload's request stream over its generated inputs.
pub enum Feed {
    Stateless(StatelessFeed),
    Sessions(SessionFeed),
}

impl Feed {
    pub fn templates(templates: Vec<Template>) -> Feed {
        Feed::Stateless(StatelessFeed::new(templates.into()))
    }

    pub fn sessions(sessions: Vec<Session>, connections: usize) -> Feed {
        Feed::Sessions(SessionFeed::new(sessions.into(), connections))
    }

    /// A feed over the same inputs that has sent nothing yet.
    pub fn fresh(&self) -> Feed {
        match self {
            Feed::Stateless(f) => Feed::Stateless(StatelessFeed::new(Arc::clone(&f.templates))),
            Feed::Sessions(f) => {
                Feed::Sessions(SessionFeed::new(Arc::clone(&f.sessions), f.by_conn.len()))
            }
        }
    }

    /// Appends the next request for connection `conn`, newline included,
    /// to `out`; returns a tag identifying it and the id it carries.
    pub fn next(&mut self, conn: usize, out: &mut Vec<u8>) -> (u64, String) {
        match self {
            Feed::Stateless(f) => f.next(out),
            Feed::Sessions(f) => f.next(conn, out),
        }
    }

    /// Takes the response to the request tagged `tag`.
    pub fn answer(&mut self, tag: u64, line: &[u8]) {
        match self {
            Feed::Stateless(f) => f.answer(tag, line),
            Feed::Sessions(f) => f.responses[tag as usize] = Some(line.to_vec()),
        }
    }

    /// The exchanges of set-up, each as requests per connection: one
    /// warm-up pass over the templates; or every session's create, then
    /// one mutate and warm solve per warm kind.
    pub fn set_up_exchanges(&self) -> Vec<Vec<usize>> {
        match self {
            Feed::Stateless(f) => {
                let per_conn = f.templates.len() / 2;
                vec![vec![per_conn, f.templates.len() - per_conn]]
            }
            Feed::Sessions(f) => {
                let steps = 2 * crate::gen::SESSION_KINDS.len();
                let creates: Vec<usize> = f.by_conn.iter().map(Vec::len).collect();
                let warm = creates.iter().map(|n| n * steps).collect();
                vec![creates, warm]
            }
        }
    }
}

/// Cycles the stateless templates in order; keeps each template's first
/// ok response and flags any later response that differs from it.
pub struct StatelessFeed {
    pub templates: Arc<[Template]>,
    cursor: usize,
    pub ok: Vec<usize>,
    pub first_ok: Vec<Option<Vec<u8>>>,
    pub diverged: Vec<String>,
    pub errors: Vec<String>,
}

impl StatelessFeed {
    fn new(templates: Arc<[Template]>) -> Self {
        let n = templates.len();
        StatelessFeed {
            templates,
            cursor: 0,
            ok: vec![0; n],
            first_ok: vec![None; n],
            diverged: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn next(&mut self, out: &mut Vec<u8>) -> (u64, String) {
        let t = self.cursor % self.templates.len();
        self.cursor += 1;
        out.extend_from_slice(self.templates[t].line.as_bytes());
        out.push(b'\n');
        (t as u64, self.templates[t].id.clone())
    }

    fn answer(&mut self, tag: u64, line: &[u8]) {
        let t = tag as usize;
        if classify(line) != Answer::Ok {
            if self.errors.len() < 5 {
                self.errors.push(String::from_utf8_lossy(line).into_owned());
            }
            return;
        }
        self.ok[t] += 1;
        match &self.first_ok[t] {
            None => self.first_ok[t] = Some(line.to_vec()),
            Some(first) if first.as_slice() != line => {
                if self.diverged.len() < 5 {
                    self.diverged.push(format!(
                        "template t{t}: response changed from {} to {}",
                        String::from_utf8_lossy(first),
                        String::from_utf8_lossy(line)
                    ));
                }
            }
            Some(_) => {}
        }
    }
}

/// Streams each session's ops on the session's own connection, rotating
/// over the sessions a connection carries; keeps every response.
pub struct SessionFeed {
    pub sessions: Arc<[Session]>,
    by_conn: Vec<Vec<usize>>,
    rot: Vec<usize>,
    pub next_op: Vec<u64>,
    /// Tag → (session, op).
    pub log: Vec<(usize, u64)>,
    pub responses: Vec<Option<Vec<u8>>>,
}

impl SessionFeed {
    fn new(sessions: Arc<[Session]>, connections: usize) -> Self {
        let mut by_conn = vec![Vec::new(); connections];
        for s in 0..sessions.len() {
            by_conn[s % connections].push(s);
        }
        SessionFeed {
            by_conn,
            rot: vec![0; connections],
            next_op: vec![0; sessions.len()],
            log: Vec::new(),
            responses: Vec::new(),
            sessions,
        }
    }

    fn next(&mut self, conn: usize, out: &mut Vec<u8>) -> (u64, String) {
        let list = &self.by_conn[conn];
        let s = list[self.rot[conn] % list.len()];
        self.rot[conn] += 1;
        let op = self.next_op[s];
        self.next_op[s] += 1;
        let session = &self.sessions[s];
        out.extend_from_slice(session.op_line(op).as_bytes());
        out.push(b'\n');
        self.log.push((s, op));
        self.responses.push(None);
        ((self.log.len() - 1) as u64, session.op_id(op))
    }

    /// Responses by session and op.
    pub fn by_session(&self) -> Vec<Vec<Option<&[u8]>>> {
        let mut out: Vec<Vec<Option<&[u8]>>> =
            self.next_op.iter().map(|&n| vec![None; n as usize]).collect();
        for (tag, &(s, op)) in self.log.iter().enumerate() {
            out[s][op as usize] = self.responses[tag].as_deref();
        }
        out
    }
}
